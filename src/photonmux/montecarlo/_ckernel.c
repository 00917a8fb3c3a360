/* Event-level simulator kernel in C, loaded through ctypes by _ckernel.py.
 *
 * Word j of trial t is lane j % 4 of the Philox4x64-10 block with counter
 * t*S/4 + j/4 + 1 and key (seed, 0), mapped to (x >> 11) * 2^-53: the
 * stream layout of _tables.py.  Each block is computed from its counter
 * only when the scan first reads one of its words, so a trial costs the
 * blocks it reads and no per-trial memory.  _philox.py is the reference
 * for the generator, _numpy_backend._scan for the event rules.
 */
#include <stdint.h>

typedef struct {
    uint64_t counter; /* 0 names no block: stream counters start at 1 */
    double u[4];
} block_t;

static void philox(uint64_t key, uint64_t counter, block_t *b)
{
    uint64_t c0 = counter, c1 = 0, c2 = 0, c3 = 0, k0 = key, k1 = 0;
    for (int r = 0; r < 10; r++) {
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * c0;
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15ULL;
        k1 += 0xBB67AE8584CAA73BULL;
    }
    uint64_t x[4] = {c0, c1, c2, c3};
    for (int i = 0; i < 4; i++)
        b->u[i] = (double)(x[i] >> 11) * 0x1.0p-53;
    b->counter = counter;
}

/* Word `slot` of the trial whose first block is `base`.  One block is kept
 * per word kind (pair, herald, dark); a block two kinds share, as in
 * shallow layouts, is taken from whichever holds it. */
static double word(uint64_t key, uint64_t base, uint64_t slot, block_t *cache, int kind)
{
    uint64_t counter = base + slot / 4;
    for (int i = 0; i < 3; i++)
        if (cache[i].counter == counter)
            return cache[i].u[slot % 4];
    philox(key, counter, &cache[kind]);
    return cache[kind].u[slot % 4];
}

/* Adds the surviving photon count of each trial in [start, stop) to
 * counts.  Every table row ends in 1.0, which no word reaches, so each
 * inverse-CDF search stops inside its row. */
void run_counter(uint64_t seed, uint64_t start, uint64_t stop, uint64_t w, double p_dark,
                 const double *pair_cdf, const double *herald_prob,
                 const double *survival_cdf, int64_t width, int64_t *counts)
{
    block_t cache[3] = {{0}, {0}, {0}};
    uint64_t blocks_per_trial = (3 * w + 4) / 4;
    for (uint64_t t = start; t < stop; t++) {
        uint64_t base = t * blocks_per_trial + 1;
        int64_t n = 0, k = 0;
        for (uint64_t win = 0; win < w; win++) {
            double u = word(seed, base, win, cache, 0);
            for (n = 0; u >= pair_cdf[n]; n++) {}
            if (word(seed, base, w + win, cache, 1) < herald_prob[n]
                || (p_dark > 0.0 && word(seed, base, 2 * w + win, cache, 2) < p_dark))
                break; /* routed; a trial that never triggers routes window w-1 */
        }
        double u = word(seed, base, 3 * w, cache, 0);
        for (k = 0; u >= survival_cdf[n * width + k]; k++) {}
        counts[k]++;
    }
}
