/* Event-level simulator kernel in C, loaded through ctypes by _ckernel.py.
 *
 * Word j of trial t is lane j % 4 of the Philox4x64-10 block with counter
 * t*S/4 + j/4 + 1 and key (seed, 0), mapped to (x >> 11) * 2^-53: the
 * stream layout of _tables.py.  With w >= 4 windows each word kind (pair,
 * herald, dark) fills w/4 blocks, and the scan walks the windows in groups
 * of 4, one block of each kind per group.  Every group the scan reaches gets
 * its pair block.  It gets its herald block only once it reaches a window
 * whose pair count can herald (herald_prob[n] > 0), and its dark block only
 * once a window fails its herald test; the trial gets its survival block
 * only when its routed row can give survivors (survival_cdf[n, 0] < 1).
 * These tests read only the tables.  So a trial computes just the blocks
 * whose words can decide its outcome, and needs no per-trial memory.
 *
 * The single-pass rule: where a group usually holds a pair (pair_cdf[0]^4
 * < 1/2), its herald block is usually read, and computing the blocks as
 * lanes of one pass measured faster than computing each alone and testing
 * whether it is needed.  The scan then computes each group's pair and
 * herald blocks together, and the survival block with the first group's,
 * as it does the 1 or 2 blocks of a trial of 1 or 2 windows.  With w >= 4,
 * dark blocks stay lazy in both modes.
 * _philox.py is the reference for the generator, _numpy_backend._scan for
 * the event rules.
 */
#include <stdint.h>

/* Blocks counter[0..n), n <= 3, as lanes of one pass over the rounds: lane i
 * gets its four words in u[4i..4i+4).  The lanes are independent, so their
 * multiplies overlap; inlined with a constant n, they stay in registers. */
static inline __attribute__((always_inline)) void
philox(uint64_t key, int n, const uint64_t *counter, double *u)
{
    uint64_t c0[3], c1[3] = {0}, c2[3] = {0}, c3[3] = {0}, k0 = key, k1 = 0;
#pragma GCC unroll 3
    for (int i = 0; i < n; i++)
        c0[i] = counter[i];
#pragma GCC unroll 10
    for (int r = 0; r < 10; r++) {
#pragma GCC unroll 3
        for (int i = 0; i < n; i++) {
            unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * c0[i];
            unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * c2[i];
            c0[i] = (uint64_t)(p1 >> 64) ^ c1[i] ^ k0;
            c1[i] = (uint64_t)p1;
            c2[i] = (uint64_t)(p0 >> 64) ^ c3[i] ^ k1;
            c3[i] = (uint64_t)p0;
        }
        k0 += 0x9E3779B97F4A7C15ULL;
        k1 += 0xBB67AE8584CAA73BULL;
    }
#pragma GCC unroll 3
    for (int i = 0; i < n; i++) {
        u[4 * i] = (double)(c0[i] >> 11) * 0x1.0p-53;
        u[4 * i + 1] = (double)(c1[i] >> 11) * 0x1.0p-53;
        u[4 * i + 2] = (double)(c2[i] >> 11) * 0x1.0p-53;
        u[4 * i + 3] = (double)(c3[i] >> 11) * 0x1.0p-53;
    }
}

/* The scan of trials [start, stop), whose arguments are those of
 * run_counter.  Inlined with a constant single_pass, each mode compiles to
 * a loop of its own, and the single pass keeps no test of the lazy one. */
static inline __attribute__((always_inline)) int64_t
scan(int single_pass, uint64_t seed, uint64_t start, uint64_t stop, uint64_t w, double p_dark,
     const double *pair_cdf, const double *herald_prob, const double *survival_cdf,
     int64_t width, int64_t *counts)
{
    const uint64_t blocks_per_trial = (3 * w + 4) / 4, q = w / 4;
    /* The words in hand.  With w >= 4, the current group's pair, herald and
     * dark blocks at 0, 4 and 12, and the survival block at 8; else the
     * trial's blocks in stream order.  Pair words start at 0, and `herald`,
     * `dark` and `survival` are the offsets of the other kinds; window win's
     * words are at lane win % 4 from there.  The counters name the lazy
     * blocks in u; 0 names no block. */
    double u[16] = {0};
    const uint64_t herald = w >= 4 ? 4 : w, dark = w >= 4 ? 12 : 2 * w,
                   survival = w >= 4 ? 8 : 3 * w;
    uint64_t herald_counter = 0, dark_counter = 0, survival_counter = 0;
    int64_t blocks = 0;
    for (uint64_t t = start; t < stop; t++) {
        uint64_t base = t * blocks_per_trial + 1;
        uint64_t first[3] = {base, base + (w >= 4 ? q : 1), base + 3 * q};
        if (!single_pass)
            philox(seed, 1, first, u);
        else if (w >= 4)
            philox(seed, 3, first, u);
        else if (w == 2)
            philox(seed, 2, first, u);
        else
            philox(seed, 1, first, u);
        blocks += !single_pass ? 1 : w >= 4 ? 3 : (int64_t)blocks_per_trial;
        int64_t n = 0, k = 0;
        for (uint64_t win = 0; win < w; win++) {
            uint64_t g = win / 4, lane = win % 4;
            if (lane == 0 && g > 0) {
                uint64_t next[2] = {base + g, base + q + g};
                if (single_pass)
                    philox(seed, 2, next, u);
                else
                    philox(seed, 1, next, u);
                blocks += single_pass ? 2 : 1;
            }
            double x = u[lane];
            for (n = 0; x >= pair_cdf[n]; n++) {}
            if (single_pass || herald_prob[n] > 0.0) {
                if (!single_pass && herald_counter != base + q + g) {
                    herald_counter = base + q + g;
                    philox(seed, 1, &herald_counter, u + herald);
                    blocks++;
                }
                if (u[herald + lane] < herald_prob[n])
                    break; /* routed; a trial that never triggers routes window w-1 */
            }
            if (p_dark > 0.0) {
                if (w >= 4 && dark_counter != base + 2 * q + g) {
                    dark_counter = base + 2 * q + g;
                    philox(seed, 1, &dark_counter, u + dark);
                    blocks++;
                }
                if (u[dark + lane] < p_dark)
                    break;
            }
        }
        if (single_pass || survival_cdf[n * width] < 1.0) {
            if (!single_pass && survival_counter != base + 3 * q) {
                survival_counter = base + 3 * q;
                philox(seed, 1, &survival_counter, u + survival);
                blocks++;
            }
            double x = u[survival];
            for (k = 0; x >= survival_cdf[n * width + k]; k++) {}
        }
        counts[k]++;
    }
    return blocks;
}

/* Adds the surviving photon count of each trial in [start, stop) to counts
 * and returns the number of Philox blocks computed.  Every table row ends
 * in 1.0, which no word reaches, so each inverse-CDF search stops inside
 * its row. */
int64_t run_counter(uint64_t seed, uint64_t start, uint64_t stop, uint64_t w, double p_dark,
                    const double *pair_cdf, const double *herald_prob,
                    const double *survival_cdf, int64_t width, int64_t *counts)
{
    const double empty = pair_cdf[0]; /* P(a window holds no pair) */
    if (w < 4 || empty * empty * empty * empty < 0.5)
        return scan(1, seed, start, stop, w, p_dark, pair_cdf, herald_prob, survival_cdf,
                    width, counts);
    return scan(0, seed, start, stop, w, p_dark, pair_cdf, herald_prob, survival_cdf,
                width, counts);
}
