/* Event-level simulator kernel in C, loaded through ctypes by _ckernel.py.
 *
 * Word j of trial t is lane j % 4 of the Philox4x64-10 block with counter
 * t*S/4 + j/4 + 1 and key (seed, 0), mapped to (x >> 11) * 2^-53: the
 * stream layout of _tables.py.  With w >= 4 windows each word kind (pair,
 * herald, dark) fills w/4 blocks, and the scan walks the windows in groups
 * of 4, one block of each kind per group.  A trial's first pair and herald
 * blocks and its survival block are computed together at its start, a later
 * group's pair and herald blocks together when the scan reaches it, and a
 * group's dark block only when one of its windows fails its herald test.
 * A trial of 1 or 2 windows is 1 or 2 blocks, all computed at its start.
 * So a trial computes just the blocks whose words it reads, and needs no
 * per-trial memory.  _philox.py is the reference for the generator,
 * _numpy_backend._scan for the event rules.
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

/* Adds the surviving photon count of each trial in [start, stop) to
 * counts.  Every table row ends in 1.0, which no word reaches, so each
 * inverse-CDF search stops inside its row. */
void run_counter(uint64_t seed, uint64_t start, uint64_t stop, uint64_t w, double p_dark,
                 const double *pair_cdf, const double *herald_prob,
                 const double *survival_cdf, int64_t width, int64_t *counts)
{
    const uint64_t blocks_per_trial = (3 * w + 4) / 4, q = w / 4;
    /* The words in hand.  With w >= 4, the current group's pair, herald and
     * dark blocks at 0, 4 and 12, and the survival block at 8; else the
     * trial's blocks in stream order.  Pair words start at 0, and `herald`,
     * `dark` and `survival` are the offsets of the other kinds; window win's
     * words are at lane win % 4 from there. */
    double u[16];
    const uint64_t herald = w >= 4 ? 4 : w, dark = w >= 4 ? 12 : 2 * w,
                   survival = w >= 4 ? 8 : 3 * w;
    uint64_t dark_counter = 0; /* of the dark block in u; 0 names no block */
    for (uint64_t t = start; t < stop; t++) {
        uint64_t base = t * blocks_per_trial + 1;
        uint64_t first[3] = {base, base + (w >= 4 ? q : 1), base + 3 * q};
        if (w >= 4)
            philox(seed, 3, first, u);
        else if (w == 2)
            philox(seed, 2, first, u);
        else
            philox(seed, 1, first, u);
        int64_t n = 0, k = 0;
        for (uint64_t win = 0; win < w; win++) {
            uint64_t g = win / 4, lane = win % 4;
            if (lane == 0 && g > 0) {
                uint64_t next[2] = {base + g, base + q + g};
                philox(seed, 2, next, u);
            }
            double x = u[lane];
            for (n = 0; x >= pair_cdf[n]; n++) {}
            if (u[herald + lane] < herald_prob[n])
                break; /* routed; a trial that never triggers routes window w-1 */
            if (p_dark > 0.0) {
                if (w >= 4 && dark_counter != base + 2 * q + g) {
                    dark_counter = base + 2 * q + g;
                    philox(seed, 1, &dark_counter, u + dark);
                }
                if (u[dark + lane] < p_dark)
                    break;
            }
        }
        double x = u[survival];
        for (k = 0; x >= survival_cdf[n * width + k]; k++) {}
        counts[k]++;
    }
}
