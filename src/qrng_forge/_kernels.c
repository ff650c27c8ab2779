/* The hot loops of qrng_forge, loaded through ctypes by _native.py.
 *
 * Each kernel has a numpy reference in the Python module that calls it, and
 * the two must agree bit for bit:
 *   qf_simulate        source._slice_py, slice by slice: a range of source
 *                      slices, each drawn by numpy's own distribution code
 *                      (libnpyrandom.a) from a Philox keyed as
 *                      source._slice_rng keys it, routed, thinned, jittered
 *                      and sorted in C; built only when numpy's archive is
 *                      there to link (QF_NPYRANDOM)
 *   qf_slice_key       numpy's SeedSequence([seed, s]).generate_state(2, uint64)
 *   qf_slice_sort      source._slice_order (qf_simulate's stable radix sort
 *                      of one slice, for tests)
 *   qf_settle          source._settle_py (stable argsort of the whole stream)
 *   qf_dead_time       source._dead_time_keep_py (per-channel dead time)
 *   qf_split_channels  timetags._split_channels_np
 *   qf_match           coincidence._match_py
 *   qf_coincide        coincidence._coincide_py (the channel split,
 *                      find_coincidences per section pair and assign_bits):
 *                      one pass over a tag stream that matches its three
 *                      section pairs with qf_match's cluster scan and DP
 *   qf_toeplitz        extract._FftHasher, block by block (qf_clmul runs its
 *                      product with either word multiply, for tests)
 *   qf_bit_stats       randtests._bit_stats_py (every count of one battery
 *                      sequence in one pass over its packed bits)
 * Callers check dtypes, contiguity and buffer sizes (_native.address).
 */

#include <stdint.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif
#ifdef QF_NPYRANDOM
#include "numpy/random/bitgen.h"
#endif

/* i if c, else j, by masks: compilers keep this free of branches */
static inline int64_t pick(int c, int64_t i, int64_t j)
{
    const int64_t mask = -(int64_t)c;
    return (i & mask) | (j & ~mask);
}

/* realloc that keeps p, and sets *failed, when it cannot grow it */
static void *regrow(void *p, size_t bytes, int *failed)
{
    void *q = realloc(p, bytes);
    *failed |= !q;
    return q ? q : p;
}

/* ---------------------------------------------------------------------------
 * Source slices: qf_simulate draws each slice from numpy's own Philox and
 * distribution code, so that it makes source._slice_py's draws bit for bit.
 */

#define RADIX_BITS 11
#define RADIX (1 << RADIX_BITS)

/* Stable LSD radix sort of (ts, ch)[0:n] by time into (out_ts, out_ch),
 * RADIX_BITS bits of t - lo a pass, lo the least time. The passes move the
 * tags back and forth between the two pairs of arrays, so (ts, ch) is
 * overwritten, and a pass whose digit every tag shares is skipped. */
void qf_slice_sort(int64_t *ts, uint8_t *ch, int64_t n, int64_t *out_ts, uint8_t *out_ch)
{
    if (n <= 0)
        return;
    int64_t lo = ts[0], hi = ts[0];
    for (int64_t i = 1; i < n; i++) {
        lo = ts[i] < lo ? ts[i] : lo;
        hi = ts[i] > hi ? ts[i] : hi;
    }
    const uint64_t span = (uint64_t)hi - (uint64_t)lo;
    int64_t *t[2] = {ts, out_ts};
    uint8_t *c[2] = {ch, out_ch};
    int64_t count[RADIX];
    int src = 0;
    for (int shift = 0; shift < 64 && span >> shift; shift += RADIX_BITS) {
        const int64_t *from = t[src];
        memset(count, 0, sizeof count);
        for (int64_t i = 0; i < n; i++)
            count[((uint64_t)from[i] - (uint64_t)lo) >> shift & (RADIX - 1)]++;
        if (count[((uint64_t)from[0] - (uint64_t)lo) >> shift & (RADIX - 1)] == n)
            continue;
        for (int64_t d = 0, sum = 0; d < RADIX; d++) {
            const int64_t k = count[d];
            count[d] = sum;
            sum += k;
        }
        const uint8_t *from_ch = c[src];
        int64_t *to = t[!src];
        uint8_t *to_ch = c[!src];
        for (int64_t i = 0; i < n; i++) {
            const int64_t j = count[((uint64_t)from[i] - (uint64_t)lo) >> shift & (RADIX - 1)]++;
            to[j] = from[i];
            to_ch[j] = from_ch[i];
        }
        src = !src;
    }
    if (src == 0) {
        memcpy(out_ts, ts, n * sizeof *ts);
        memcpy(out_ch, ch, n);
    }
}

/* SeedSequence's hashes (numpy/random/bit_generator.pyx): hashmix folds a
 * word into the pool under a running multiplier, mix combines two words. */
static uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= 0x931e8875u;
    value *= *hash;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ (r >> 16);
}

/* key[0:2] = SeedSequence([seed, s]).generate_state(2, uint64), the Philox
 * key of slice s. Each value enters as its little-endian 32-bit words: one
 * word below 2^32 (0 included), two from there on. So the entropy holds 2
 * to 4 words, and the pool of 4 words takes all of it before mixing. */
void qf_slice_key(uint64_t seed, uint64_t s, uint64_t *key)
{
    uint32_t entropy[4] = {0, 0, 0, 0}, pool[4], hash = 0x43b0d7e5u;
    const uint64_t values[2] = {seed, s};
    int n = 0;
    for (int v = 0; v < 2; v++) {
        entropy[n++] = (uint32_t)values[v];
        if (values[v] >> 32)
            entropy[n++] = (uint32_t)(values[v] >> 32);
    }
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(entropy[i], &hash); /* past the entropy, words of 0 */
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    uint32_t out_hash = 0x8b51f9ddu, w[4];
    for (int i = 0; i < 4; i++) {
        uint32_t v = pool[i] ^ out_hash;
        out_hash *= 0x58f38dedu;
        v *= out_hash;
        w[i] = v ^ (v >> 16);
    }
    key[0] = w[0] | (uint64_t)w[1] << 32;
    key[1] = w[2] | (uint64_t)w[3] << 32;
}

#ifdef QF_NPYRANDOM
/* numpy's distributions, linked from numpy/random/lib/libnpyrandom.a. They
 * are declared here because numpy/random/distributions.h includes Python.h;
 * its npy_intp is Py_ssize_t, as wide as a pointer. */
int64_t random_poisson(bitgen_t *state, double lam);
void random_bounded_uint64_fill(bitgen_t *state, uint64_t off, uint64_t rng, intptr_t cnt,
                                bool use_masked, uint64_t *out);
void random_standard_uniform_fill(bitgen_t *state, intptr_t cnt, double *out);
void random_standard_normal_fill(bitgen_t *state, intptr_t cnt, double *out);

/* Signal tags of one source slice, before thinning and jitter.
 *
 * times[0:n] are the slice's pair emission times and section[0:n] their
 * section pairs, 0 (U1, D2), 1 (U2, D1) or 2 (C1, C2), of which there are
 * per_section[0:3]. u holds one uniform per section-2 pair, in pair order,
 * and cum the n_settings x 4 cumulative joint-outcome probabilities of the
 * analyzer settings. A section-2 pair at time t >= 0 sees setting
 * (t / dwell) % n_settings and outcome min(#(cum[k] <= u), 3), compared on
 * the same doubles as the reference: outcomes 0 and 1 fire C1, outcomes 0
 * and 2 fire C2.
 *
 * Writes the tags to (ts, ch) as U1 and D2 of the section-0 pairs, U2 and
 * D1 of the section-1 pairs, the C1 hits, then the C2 hits, each group in
 * pair order, and returns their number. ts must hold 2n + 1 values, ch 2n.
 *
 * Sections and outcomes are random, so the loops do not branch on them:
 * every pair stores its time into each group it might join, and a store
 * that does not count goes to ts[2n], a slot past every group.
 */
static int64_t route_pairs(const uint64_t *times, const uint64_t *section, int64_t n,
                           const int64_t *per_section, const double *u, const double *cum,
                           int64_t n_settings, int64_t dwell, int64_t *ts, uint8_t *ch)
{
    const int64_t sink = 2 * n, u2_start = 2 * per_section[0];
    const int64_t c1_start = u2_start + 2 * per_section[1], c2_start = c1_start + per_section[2];
    int64_t u1 = 0, u2 = u2_start, c = c1_start;
    for (int64_t i = 0; i < n; i++) {
        const int64_t t = (int64_t)times[i];
        const uint64_t s = section[i];
        ts[pick(s == 0, u1, sink)] = t;
        u1 += s == 0;
        ts[pick(s == 1, u2, sink)] = t;
        u2 += s == 1;
        ts[pick(s == 2, c, sink)] = t;
        c += s == 2;
    }
    memcpy(ts + per_section[0], ts, per_section[0] * sizeof *ts);
    memcpy(ts + u2_start + per_section[1], ts + u2_start, per_section[1] * sizeof *ts);
    /* the section-2 times sit at c1_start; the C1 hits overwrite them in place */
    int64_t c1 = c1_start, c2 = c2_start;
    for (int64_t k = 0; k < per_section[2]; k++) {
        const int64_t t = ts[c1_start + k];
        const double *row = cum + 4 * ((t / dwell) % n_settings), x = u[k];
        int outcome = (row[0] <= x) + (row[1] <= x) + (row[2] <= x) + (row[3] <= x);
        outcome -= outcome > 3;
        const int hit1 = (outcome == 0) | (outcome == 1), hit2 = (outcome == 0) | (outcome == 2);
        ts[pick(hit1, c1, sink)] = t;
        c1 += hit1;
        ts[pick(hit2, c2, sink)] = t;
        c2 += hit2;
    }
    /* the C2 hits were written after room for every C1 hit; close the gap */
    memmove(ts + c1, ts + c2_start, (c2 - c2_start) * sizeof *ts);
    memset(ch, 0, per_section[0]);
    memset(ch + per_section[0], 3, per_section[0]);
    memset(ch + u2_start, 1, per_section[1]);
    memset(ch + u2_start + per_section[1], 2, per_section[1]);
    memset(ch + c1_start, 4, c1 - c1_start);
    memset(ch + c1, 5, c2 - c2_start);
    return c1 + c2 - c2_start;
}

/* Detector efficiency: keeps tag i when u[i] < eta[ch[i]], compacting
 * (ts, ch) in place, and returns how many stay. Channel codes must be < 6. */
static int64_t thin_tags(int64_t *ts, uint8_t *ch, int64_t n, const double *u, const double *eta)
{
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++)
        if (u[i] < eta[ch[i]]) {
            ts[k] = ts[i];
            ch[k++] = ch[i];
        }
    return k;
}

/* Timing jitter: ts[i] += rint(sigma * z[i]) for standard normals z, then
 * clipped to [0, duration]. sigma * z is the double that numpy's
 * normal(0, sigma) draws from the same generator state. */
static void jitter_tags(int64_t *ts, int64_t n, const double *z, double sigma, int64_t duration)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t t = ts[i] + (int64_t)rint(sigma * z[i]);
        ts[i] = t < 0 ? 0 : t > duration ? duration : t;
    }
}

__extension__ typedef unsigned __int128 u128;

/* Philox4x64-10 as numpy's Philox runs it: the 256-bit counter steps by one
 * before each block of four words, the words go out in order, and a 32-bit
 * draw takes the low half of a word and keeps the high half for the next
 * one. A fresh generator has counter 0, an empty buffer and no half word. */
typedef struct {
    uint64_t ctr[4], key[2], buffer[4];
    int next; /* the buffer's next word, 4 when it is used up */
    int has_half;
    uint32_t half;
} philox;

static uint64_t philox_next64(void *state)
{
    philox *p = state;
    if (p->next == 4) {
        for (int i = 0; i < 4; i++)
            if (++p->ctr[i])
                break;
        uint64_t c0 = p->ctr[0], c1 = p->ctr[1], c2 = p->ctr[2], c3 = p->ctr[3];
        uint64_t k0 = p->key[0], k1 = p->key[1];
        for (int round = 0; round < 10; round++) {
            const u128 m0 = (u128)0xD2E7470EE14C6C93u * c0, m1 = (u128)0xCA5A826395121157u * c2;
            c0 = (uint64_t)(m1 >> 64) ^ c1 ^ k0;
            c1 = (uint64_t)m1;
            c2 = (uint64_t)(m0 >> 64) ^ c3 ^ k1;
            c3 = (uint64_t)m0;
            k0 += 0x9E3779B97F4A7C15u;
            k1 += 0xBB67AE8584CAA73Bu;
        }
        p->buffer[0] = c0;
        p->buffer[1] = c1;
        p->buffer[2] = c2;
        p->buffer[3] = c3;
        p->next = 0;
    }
    return p->buffer[p->next++];
}

static uint32_t philox_next32(void *state)
{
    philox *p = state;
    if (p->has_half) {
        p->has_half = 0;
        return p->half;
    }
    const uint64_t w = philox_next64(p);
    p->has_half = 1;
    p->half = (uint32_t)(w >> 32);
    return (uint32_t)w;
}

static double philox_next_double(void *state)
{
    return (double)(philox_next64(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* The scratch of one qf_simulate call, grown as its slices need: pair draws
 * for cap_pairs pairs, the slice's tags for cap_tags tags (the sort's scratch),
 * and dark tags for cap_dark. */
typedef struct {
    uint64_t *times, *section, *dark_ts;
    double *f;
    int64_t *ts;
    uint8_t *ch, *dark_ch;
    int64_t cap_pairs, cap_tags, cap_dark;
    int failed;
} slice_scratch;

static void reserve_pairs(slice_scratch *w, int64_t n)
{
    if (n <= w->cap_pairs)
        return;
    const int64_t cap = n + n / 2;
    w->times = regrow(w->times, cap * sizeof *w->times, &w->failed);
    w->section = regrow(w->section, cap * sizeof *w->section, &w->failed);
    w->f = regrow(w->f, 2 * cap * sizeof *w->f, &w->failed);
    w->cap_pairs = w->failed ? w->cap_pairs : cap;
}

static void reserve_tags(slice_scratch *w, int64_t n)
{
    if (n <= w->cap_tags)
        return;
    const int64_t cap = n + n / 2;
    w->ts = regrow(w->ts, cap * sizeof *w->ts, &w->failed);
    w->ch = regrow(w->ch, cap, &w->failed);
    w->cap_tags = w->failed ? w->cap_tags : cap;
}

static void reserve_dark(slice_scratch *w, int64_t n)
{
    if (n <= w->cap_dark)
        return;
    const int64_t cap = n + n / 2;
    w->dark_ts = regrow(w->dark_ts, cap * sizeof *w->dark_ts, &w->failed);
    w->dark_ch = regrow(w->dark_ch, cap, &w->failed);
    w->cap_dark = w->failed ? w->cap_dark : cap;
}

/* The tags of slices s0 to s1 - 1 of one acquisition, each slice in stable
 * time order, written one slice after the other to (ts, ch).
 *
 * Slice s covers [s * slice_ps, min((s + 1) * slice_ps, duration)) and draws
 * from a fresh Philox keyed by qf_slice_key(seed, s), as source._slice_py
 * draws from the generator source._slice_rng(seed, s), in its order and
 * sizes: the pair count (Poisson, mean rate times the slice's width), the
 * emission times and the sections (bounded integers), one analyzer uniform
 * per section-2 pair, one efficiency uniform per signal tag when some
 * eta[c] < 1, one standard normal per surviving signal tag when sigma > 0,
 * then, for each channel c with dark[c] > 0 in turn, a Poisson count of mean
 * dark[c] times the width and that many uniform times. dark holds counts
 * per picosecond, eta and dark one value per channel, and cum and dwell the
 * analyzer settings, as in route_pairs.
 *
 * A slice whose tags do not fit in the capacity - counts[0] slots left is
 * not written, and the call returns its index, with counts[1] set to its
 * size; a later call can start there. Otherwise the call returns s1, with
 * counts[1] = 0. counts[0] is the number of tags written. Returns -1 when
 * the scratch cannot be allocated.
 */
int64_t qf_simulate(uint64_t seed, int64_t slice_ps, int64_t duration, double rate,
                    const double *dark, const double *eta, double sigma, const double *cum,
                    int64_t n_settings, int64_t dwell, int64_t s0, int64_t s1, int64_t *ts,
                    uint8_t *ch, int64_t capacity, int64_t *counts)
{
    philox p;
    bitgen_t rng = {&p, philox_next64, philox_next32, philox_next_double, philox_next64};
    slice_scratch w;
    memset(&w, 0, sizeof w);
    int thin = 0;
    for (int c = 0; c < 6; c++)
        thin |= eta[c] < 1.0;
    int64_t s = s0, written = 0;
    counts[1] = 0;
    for (; s < s1; s++) {
        memset(&p, 0, sizeof p);
        p.next = 4;
        qf_slice_key(seed, (uint64_t)s, p.key);
        const int64_t t0 = s * slice_ps, t1 = t0 + slice_ps < duration ? t0 + slice_ps : duration;
        const double width = (double)(t1 - t0);

        const int64_t n_pairs = random_poisson(&rng, rate * width);
        reserve_pairs(&w, n_pairs);
        reserve_tags(&w, 2 * n_pairs + 1);
        if (w.failed)
            break;
        random_bounded_uint64_fill(&rng, (uint64_t)t0, (uint64_t)(t1 - 1 - t0), n_pairs, false,
                                   w.times);
        random_bounded_uint64_fill(&rng, 0, 2, n_pairs, false, w.section);
        int64_t per_section[3] = {0, 0, 0};
        for (int64_t i = 0; i < n_pairs; i++)
            per_section[w.section[i]]++;
        random_standard_uniform_fill(&rng, per_section[2], w.f);
        int64_t n = route_pairs(w.times, w.section, n_pairs, per_section, w.f, cum, n_settings,
                                dwell, w.ts, w.ch);
        if (thin) {
            random_standard_uniform_fill(&rng, n, w.f);
            n = thin_tags(w.ts, w.ch, n, w.f, eta);
        }
        if (sigma > 0 && n) {
            random_standard_normal_fill(&rng, n, w.f);
            jitter_tags(w.ts, n, w.f, sigma, duration);
        }

        int64_t n_dark = 0;
        for (int c = 0; c < 6; c++) {
            const int64_t k = dark[c] > 0 ? random_poisson(&rng, dark[c] * width) : 0;
            if (!k)
                continue;
            reserve_dark(&w, n_dark + k);
            if (w.failed)
                break;
            random_bounded_uint64_fill(&rng, (uint64_t)t0, (uint64_t)(t1 - 1 - t0), k, false,
                                       w.dark_ts + n_dark);
            memset(w.dark_ch + n_dark, c, k);
            n_dark += k;
        }
        /* the slice's tags: its dark tags, then its signal tags */
        reserve_tags(&w, n_dark + n);
        if (w.failed)
            break;
        if (n_dark) {
            memmove(w.ts + n_dark, w.ts, n * sizeof *w.ts);
            memmove(w.ch + n_dark, w.ch, n);
            memcpy(w.ts, w.dark_ts, n_dark * sizeof *w.ts);
            memcpy(w.ch, w.dark_ch, n_dark);
            n += n_dark;
        }
        if (n > capacity - written) {
            counts[1] = n;
            break;
        }
        qf_slice_sort(w.ts, w.ch, n, ts + written, ch + written);
        written += n;
    }
    free(w.times);
    free(w.section);
    free(w.f);
    free(w.ts);
    free(w.ch);
    free(w.dark_ts);
    free(w.dark_ch);
    counts[0] = written;
    return w.failed ? -1 : s;
}
#endif

/* Stable insertion sort of (ts, ch) by ts, in place. Each tag moves past
 * the earlier tags with a strictly larger time, so equal times keep their
 * order, and the work is linear when few tags are out of place. Once more
 * than n moves have been made it stops, after finishing the tag in hand,
 * and returns 0: the arrays then hold a permutation that kept the order of
 * equal times, which a stable sort completes to the same result. Returns 1
 * when the arrays are sorted. */
int qf_settle(int64_t *ts, uint8_t *ch, int64_t n)
{
    int64_t moves = 0;
    for (int64_t i = 1; i < n; i++) {
        const int64_t t = ts[i];
        if (t >= ts[i - 1])
            continue;
        const uint8_t c = ch[i];
        int64_t j = i;
        while (j > 0 && ts[j - 1] > t) {
            ts[j] = ts[j - 1];
            ch[j] = ch[j - 1];
            j--;
        }
        ts[j] = t;
        ch[j] = c;
        moves += i - j;
        if (moves > n)
            return 0;
    }
    return 1;
}

/* Non-paralyzable dead time on a time-ordered stream, per channel: a tag
 * stays if it is its channel's first or trails the channel's last kept
 * tag by at least dead_time. Compacts (ts, ch) in place and returns how
 * many stay. */
int64_t qf_dead_time(int64_t *ts, uint8_t *ch, int64_t n, int64_t dead_time)
{
    int64_t last[256], k = 0;
    uint8_t seen[256] = {0};
    for (int64_t i = 0; i < n; i++) {
        const uint8_t c = ch[i];
        if (seen[c] && ts[i] - last[c] < dead_time)
            continue;
        seen[c] = 1;
        last[c] = ts[i];
        ts[k] = ts[i];
        ch[k++] = c;
    }
    return k;
}

/* Stable split of a time-ordered tag stream into its six channels.
 *
 * counts[c] receives the number of tags with channel code c (codes above 5
 * are skipped), and out[0:sum(counts)] the tags' timestamps grouped by
 * channel code, each group in stream order. out must hold n values.
 */
void qf_split_channels(const int64_t *ts, const uint8_t *ch, int64_t n, int64_t *counts,
                       int64_t *out)
{
    int64_t pos[6], start = 0;
    for (int c = 0; c < 6; c++)
        counts[c] = 0;
    for (int64_t i = 0; i < n; i++)
        if (ch[i] < 6)
            counts[ch[i]]++;
    for (int c = 0; c < 6; c++) {
        pos[c] = start;
        start += counts[c];
    }
    for (int64_t i = 0; i < n; i++)
        if (ch[i] < 6)
            out[pos[ch[i]]++] = ts[i];
}

/* ---------------------------------------------------------------------------
 * Coincidences. In merged time order, consecutive tags of a channel pair
 * more than tau apart can never be matched across that gap, so such gaps
 * cut the pair's tags into independent clusters. A cluster of one a-tag and
 * one b-tag is a match; every other cluster holding both sides is solved by
 * solve_cluster. qf_match matches two channels; qf_coincide matches the
 * three section pairs of a tag stream in one pass over it.
 */

/* The best matching of some prefixes of a cluster: its pairs and total |delta|. */
typedef struct {
    int64_t n, cost;
} cell;

/* More pairs, or as many at a smaller total |delta|. */
static int better(cell x, cell y)
{
    return x.n > y.n || (x.n == y.n && x.cost < y.cost);
}

/* Exact matching of one cluster, a[0:n] against b[0:m] (each sorted), within
 * |b - a| <= tau: the most pairs, and among those the least total |delta|.
 *
 * A dynamic programme over D[i][j], the best matching of the first i a-tags
 * and first j b-tags: some optimal matching never crosses, so D[i][j] is the
 * best of D[i-1][j] (a[i-1] unmatched), D[i][j-1] (b[j-1] unmatched) and
 * D[i-1][j-1] plus the pair (a[i-1], b[j-1]) if it lies in the window. Row i
 * keeps only the band lo[i] <= j <= hi[i] of b-prefixes ending within tau of
 * a[i-1]: below it D[i][j] = D[i-1][j], and above it D[i][j] = D[i][hi[i]],
 * since no later b-tag is within tau of any of the i a-tags.
 *
 * Tie rule: the walk back starts at the cluster's last tags and, at each
 * step, leaves the last a-tag unmatched if that keeps the optimum, else
 * leaves the last b-tag unmatched, else matches the two.
 *
 * The matches go to (ma, mb), as indices into a and b, in time order; at
 * most min(n, m) are written. Returns their number, or -1 if the work space
 * cannot be allocated.
 */
static int64_t solve_cluster(const int64_t *a, int64_t n, const int64_t *b, int64_t m,
                             int64_t tau, int64_t *ma, int64_t *mb)
{
    int64_t *lo = malloc(3 * (n + 1) * sizeof *lo);
    if (!lo)
        return -1;
    int64_t *hi = lo + n + 1, *off = hi + n + 1, l = 0, h = 0, total = 1;
    lo[0] = hi[0] = off[0] = 0;
    for (int64_t r = 1; r <= n; r++) {
        while (l < m && b[l] < a[r - 1] - tau)
            l++;
        while (h < m && b[h] <= a[r - 1] + tau)
            h++;
        lo[r] = l;
        hi[r] = h;
        off[r] = total - l; /* D[r][c] is cells[off[r] + c] */
        total += h - l + 1;
    }
    cell *cells = malloc(total * sizeof *cells);
    if (!cells) {
        free(lo);
        return -1;
    }
#define D(r, c) cells[off[r] + ((c) < hi[r] ? (c) : hi[r])]
    cells[0] = (cell){0, 0};
    for (int64_t r = 1; r <= n; r++) {
        D(r, lo[r]) = D(r - 1, lo[r]);
        for (int64_t c = lo[r] + 1; c <= hi[r]; c++) {
            cell best = D(r - 1, c), pair = D(r - 1, c - 1);
            pair.n++;
            pair.cost += llabs(b[c - 1] - a[r - 1]);
            if (better(D(r, c - 1), best))
                best = D(r, c - 1);
            D(r, c) = better(pair, best) ? pair : best;
        }
    }
    /* D(r, c) is never worse than its candidates, so "not better" is "equal" */
    const int64_t k = D(n, m).n;
    int64_t r = n, c = m, w = k;
    while (D(r, c).n > 0) {
        if (!better(D(r, c), D(r - 1, c))) {
            r--;
        } else if (!better(D(r, c), D(r, c - 1))) {
            c--;
        } else {
            ma[--w] = --r;
            mb[w] = --c;
        }
    }
#undef D
    free(cells);
    free(lo);
    return k;
}

/* Exact matching of two sorted timestamp arrays within |tb - ta| <= tau.
 *
 * Matches go to (ma, mb), as indices into ta and tb, in time order; at most
 * min(na, nb) are written. Returns their number, or -1 if the work space
 * cannot be allocated.
 */
int64_t qf_match(const int64_t *ta, int64_t na, const int64_t *tb, int64_t nb, int64_t tau,
                 int64_t *ma, int64_t *mb)
{
    int64_t i = 0, j = 0, k = 0;
    while (i < na && j < nb) {
        const int64_t i0 = i, j0 = j;
        int64_t last = ta[i] <= tb[j] ? ta[i++] : tb[j++];
        for (;;) {
            const int take_a = i < na && (j >= nb || ta[i] <= tb[j]);
            if ((!take_a && j >= nb) || (take_a ? ta[i] : tb[j]) - last > tau)
                break;
            last = take_a ? ta[i++] : tb[j++];
        }
        const int64_t n = i - i0, m = j - j0;
        if (n == 1 && m == 1) {
            ma[k] = i0;
            mb[k++] = j0;
        }
        if (!n || !m || n + m == 2)
            continue;
        const int64_t got = solve_cluster(ta + i0, n, tb + j0, m, tau, ma + k, mb + k);
        if (got < 0)
            return -1;
        for (const int64_t end = k + got; k < end; k++) {
            ma[k] += i0;
            mb[k] += j0;
        }
    }
    return k;
}

/* A growable array of times. A queue reads it from head on. */
typedef struct {
    int64_t *v, n, cap, head;
} times;

/* Room in x for one time more than it holds. */
static void reserve(times *x, int *failed)
{
    if (x->n < x->cap)
        return;
    const int64_t cap = 2 * x->cap + 64;
    x->v = regrow(x->v, cap * sizeof *x->v, failed);
    x->cap = *failed ? x->cap : cap;
}

/* The open cluster of one section pair: its a-tags and b-tags, and the
 * times of its first and its latest tag. */
typedef struct {
    times side[2];
    int64_t first, last;
} cluster;

/* The state of one qf_coincide pass. Every times array holds room for one
 * time more than it holds. stats is the caller's, laid out as qf_coincide
 * states. */
typedef struct {
    cluster pair[3];
    times queue[2]; /* match times of pairs 0 and 1 not yet written as bits */
    int64_t *ma, *mb, cap_m; /* solve_cluster's output */
    uint8_t *bits;
    int64_t n_bits, *bell_t, *bell_d, *stats;
    int failed;
} coincide_pass;

/* The pair (ta, tb) of pair p, if one is 1, else nothing: its time joins the
 * pair's queue, or, for pair 2, the pair is written out. Either way one
 * time is stored, one slot past the kept ones when one is 0. */
static inline void add_match(coincide_pass *s, int p, int64_t ta, int64_t tb, int64_t one)
{
    const int64_t t = ta < tb ? ta : tb, k = s->stats[p];
    if (p == 2) {
        s->bell_t[k] = t;
        s->bell_d[k] = tb - ta;
    } else {
        times *q = &s->queue[p];
        q->v[q->n] = t;
        q->n += one;
        reserve(q, &s->failed);
    }
    s->stats[p] = k + one;
}

/* Match the open cluster of pair p, and empty it. */
static inline void close_cluster(coincide_pass *s, int p, int64_t tau)
{
    cluster *c = &s->pair[p];
    const int64_t n = c->side[0].n, m = c->side[1].n, *a = c->side[0].v, *b = c->side[1].v;
    c->side[0].n = c->side[1].n = 0;
    if (n <= 1 && m <= 1) {
        /* a[0] and b[0] always hold a value, stale on an empty side */
        add_match(s, p, a[0], b[0], n & m);
        return;
    }
    s->stats[3 + p]++;
    if (!n || !m)
        return;
    const int64_t need = n < m ? n : m;
    if (need > s->cap_m) {
        s->ma = regrow(s->ma, need * sizeof *s->ma, &s->failed);
        s->mb = regrow(s->mb, need * sizeof *s->mb, &s->failed);
        if (s->failed)
            return;
        s->cap_m = need;
    }
    const int64_t k = solve_cluster(a, n, b, m, tau, s->ma, s->mb);
    s->failed |= k < 0;
    for (int64_t q = 0; q < k && !s->failed; q++)
        add_match(s, p, a[s->ma[q]], b[s->mb[q]], 1);
}

/* The least time a later match of pair p can have, while the pass is at a
 * tag of time t: its open cluster's first time, or t. */
static int64_t bound(const coincide_pass *s, int p, int64_t t)
{
    const cluster *c = &s->pair[p];
    return c->side[0].n + c->side[1].n ? c->first : t;
}

/* Write the queued match times of pairs 0 and 1 as bits 0 and 1, MSB-first,
 * in time order with the 0 first at equal times, as far as no later match
 * can come before them: every later match of pair p has a time of at least
 * bound_p, and at the end of the pass (drain) there is none. */
static void emit_bits(coincide_pass *s, int64_t bound0, int64_t bound1, int drain)
{
    times *z = &s->queue[0], *o = &s->queue[1];
    uint8_t *bits = s->bits;
    int64_t h0 = z->head, h1 = o->head, k = s->n_bits;
    /* while both queues hold times, the earlier is first: every later match
     * of a pair comes after all of that pair's queued ones */
    while (h0 < z->n && h1 < o->n) {
        const int one = o->v[h1] < z->v[h0];
        bits[k >> 3] |= (uint8_t)(one << (7 - (k & 7)));
        k++;
        h0 += !one;
        h1 += one;
    }
    while (h0 < z->n && (drain || z->v[h0] <= bound1)) {
        h0++;
        k++;
    }
    while (h1 < o->n && (drain || o->v[h1] < bound0)) {
        bits[k >> 3] |= (uint8_t)(0x80 >> (k & 7));
        h1++;
        k++;
    }
    z->head = h0;
    o->head = h1;
    s->n_bits = k;
    for (int q = 0; q < 2; q++) {
        times *x = &s->queue[q];
        if (x->head == x->n) {
            x->head = x->n = 0;
        } else if (x->head >= 1024 && 2 * x->head >= x->n) { /* drop the written times */
            memmove(x->v, x->v + x->head, (x->n - x->head) * sizeof *x->v);
            x->n -= x->head;
            x->head = 0;
        }
    }
}

/* One pass over a time-ordered tag stream (ts, ch)[0:n] that matches its
 * three section pairs at once, each exactly as qf_match matches it.
 *
 * role[c] = 2p + s puts channel code c on side s (0 for a, 1 for b) of pair
 * p, and each side of a pair holds one channel. The matches of pairs 0 and 1
 * are the raw bits, 0 and 1, in time order (the earlier tag's time) with
 * the 0 first at equal times, written MSB-first to bits, which must be
 * zeroed and hold n / 16 + 1 bytes. Pair 2's matches go to bell_t (the
 * earlier tag's time) and bell_d (b minus a), which must each hold one value
 * more than the fewer of its a-tags and b-tags (the slot after the last
 * match is written too), and the times of its a-tags and b-tags to bell_a
 * and bell_b, which must hold as many values as there are such tags. stats
 * receives 12 counts: the matches of each pair, the clusters of each pair
 * holding more than one tag of either side, and the tags of each channel
 * code 0 to 5 (higher codes are skipped). Returns 0, or -1 if the work space
 * cannot be allocated.
 */
int64_t qf_coincide(const int64_t *ts, const uint8_t *ch, int64_t n, int64_t tau,
                    const uint8_t *role, uint8_t *bits, int64_t *bell_t, int64_t *bell_d,
                    int64_t *bell_a, int64_t *bell_b, int64_t *stats)
{
    coincide_pass s = {.bits = bits, .bell_t = bell_t, .bell_d = bell_d, .stats = stats};
    /* where each channel's next tag time goes: the Bell pair's to bell_a or
     * bell_b, each other channel's to one slot it overwrites */
    int64_t sink, *tag_out[6], tag_step[6];
    for (int c = 0; c < 6; c++) {
        tag_step[c] = role[c] >> 1 == 2;
        tag_out[c] = tag_step[c] ? (role[c] & 1 ? bell_b : bell_a) : &sink;
    }
    for (int q = 0; q < 12; q++)
        stats[q] = 0;
    for (int p = 0; p < 3; p++) {
        for (int q = 0; q < 2; q++) {
            reserve(&s.pair[p].side[q], &s.failed);
            if (!s.failed)
                s.pair[p].side[q].v[0] = 0;
        }
        s.pair[p].last = n ? ts[0] - tau - 1 : 0; /* the first tag opens a cluster */
    }
    reserve(&s.queue[0], &s.failed);
    reserve(&s.queue[1], &s.failed);
    for (int64_t i = 0; i < n && !s.failed; i++) {
        const int64_t t = ts[i];
        const uint8_t c = ch[i];
        if (c > 5)
            continue;
        const int p = role[c] >> 1;
        cluster *cl = &s.pair[p];
        *tag_out[c] = t;
        tag_out[c] += tag_step[c];
        stats[6 + c]++;
        if ((uint64_t)t - (uint64_t)cl->last > (uint64_t)tau) { /* t >= last: no overflow */
            close_cluster(&s, p, tau);
            cl->first = t;
            if (p < 2 && s.queue[p].n - s.queue[p].head >= 64)
                emit_bits(&s, bound(&s, 0, t), bound(&s, 1, t), 0);
        }
        times *side = &cl->side[role[c] & 1];
        side->v[side->n++] = t;
        reserve(side, &s.failed);
        cl->last = t;
    }
    for (int p = 0; p < 3 && !s.failed; p++)
        close_cluster(&s, p, tau);
    if (!s.failed)
        emit_bits(&s, 0, 0, 1);
    for (int p = 0; p < 3; p++)
        for (int q = 0; q < 2; q++)
            free(s.pair[p].side[q].v);
    free(s.queue[0].v);
    free(s.queue[1].v);
    free(s.ma);
    free(s.mb);
    return s.failed ? -1 : 0;
}

/* Operands of at most this many words are multiplied by a schoolbook. */
#define KARATSUBA_BASE 16

/* r[0:2n] = a * b over GF(2)[z] for n-word operands, n <= KARATSUBA_BASE,
 * word k holding the coefficients of z^(64k) to z^(64k + 63): a schoolbook
 * of one carry-less word multiply per pair of words, here by shift and xor. */
typedef void (*schoolbook)(uint64_t *r, const uint64_t *a, const uint64_t *b, int64_t n);

static void schoolbook_portable(uint64_t *r, const uint64_t *a, const uint64_t *b, int64_t n)
{
    memset(r, 0, 2 * n * sizeof *r);
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < n; j++)
            for (int s = 0; s < 64; s++) {
                const uint64_t mask = -(b[j] >> s & 1);
                r[i + j] ^= a[i] << s & mask;
                r[i + j + 1] ^= s ? a[i] >> (64 - s) & mask : 0;
            }
}

/* The schoolbook of every product, picked once when the library loads. */
static schoolbook base = schoolbook_portable;

#if defined(__x86_64__)
/* The schoolbook by pclmulqdq: each 128-bit product is xored into the
 * accumulator of its low word, and the high halves carry into the next word
 * at the end. */
__attribute__((target("pclmul,sse4.1")))
static void schoolbook_pclmul(uint64_t *r, const uint64_t *a, const uint64_t *b, int64_t n)
{
    __m128i acc[2 * KARATSUBA_BASE], bw[KARATSUBA_BASE];
    for (int64_t j = 0; j < n; j++)
        bw[j] = _mm_cvtsi64_si128((long long)b[j]);
    for (int64_t k = 0; k < 2 * n; k++)
        acc[k] = _mm_setzero_si128();
    for (int64_t i = 0; i < n; i++) {
        const __m128i ai = _mm_cvtsi64_si128((long long)a[i]);
        for (int64_t j = 0; j < n; j++)
            acc[i + j] = _mm_xor_si128(acc[i + j], _mm_clmulepi64_si128(ai, bw[j], 0));
    }
    uint64_t carry = 0;
    for (int64_t k = 0; k < 2 * n; k++) {
        r[k] = (uint64_t)_mm_cvtsi128_si64(acc[k]) ^ carry;
        carry = (uint64_t)_mm_extract_epi64(acc[k], 1);
    }
}

__attribute__((constructor)) static void pick_schoolbook(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("pclmul"))
        base = schoolbook_pclmul;
}
#endif

/* r[0:2n] = a * b as in schoolbook, splitting each operand at h words:
 * a0 b0 + z^(64h) ((a0 + a1)(b0 + b1) - a0 b0 - a1 b1) + z^(128h) a1 b1.
 * Each level takes 4h <= 2n + 4 words of w, so 4n + 256 words are enough. */
static void karatsuba(uint64_t *r, const uint64_t *a, const uint64_t *b, int64_t n,
                      uint64_t *w, schoolbook mul)
{
    if (n <= KARATSUBA_BASE) {
        mul(r, a, b, n);
        return;
    }
    const int64_t h = (n + 1) / 2, l = n - h;
    uint64_t *sa = w, *sb = w + h, *mid = w + 2 * h;
    for (int64_t i = 0; i < h; i++) {
        sa[i] = a[i] ^ (i < l ? a[h + i] : 0);
        sb[i] = b[i] ^ (i < l ? b[h + i] : 0);
    }
    karatsuba(r, a, b, h, w + 4 * h, mul);
    karatsuba(r + 2 * h, a + h, b + h, l, w + 4 * h, mul);
    karatsuba(mid, sa, sb, h, w + 4 * h, mul);
    for (int64_t i = 0; i < 2 * h; i++)
        mid[i] ^= r[i] ^ (i < 2 * l ? r[2 * h + i] : 0);
    for (int64_t i = 0; i < 2 * h; i++)
        r[h + i] ^= mid[i];
}

/* r[0:2n] = a * b by karatsuba with the portable schoolbook (pclmul = 0) or
 * the pclmul one (pclmul = 1), so that tests can hold both to one oracle.
 * Returns 0, -1 if the work space cannot be allocated, or -2 if this CPU
 * runs without pclmul. */
int64_t qf_clmul(const uint64_t *a, const uint64_t *b, int64_t n, int64_t pclmul, uint64_t *r)
{
    if (pclmul && base == schoolbook_portable)
        return -2;
    uint64_t *w = malloc((4 * n + 256) * sizeof *w);
    if (!w)
        return -1;
    karatsuba(r, a, b, n, w, pclmul ? base : schoolbook_portable);
    free(w);
    return 0;
}

/* Bits p to p + 63 of the MSB-first bit string x as a word, bit p the
 * highest. Bits from hi on read as 0, and no byte past bit hi - 1's is read. */
static uint64_t get_bits(const uint8_t *x, int64_t p, int64_t hi)
{
    const int64_t b = p >> 3, last = (hi - 1) >> 3;
    const int sh = p & 7;
    uint64_t w = 0;
    for (int i = 0; i < 8; i++)
        w = w << 8 | (b + i <= last ? x[b + i] : 0);
    if (sh)
        w = w << sh | (b + 8 <= last ? x[b + 8] : 0) >> (8 - sh);
    return hi - p < 64 ? w & ~(~0ULL >> (hi - p)) : w;
}

/* ORs the highest k bits of w, 1 <= k <= 64, into the MSB-first bit string
 * out at bits p to p + k - 1. */
static void put_bits(uint8_t *out, int64_t p, uint64_t w, int64_t k)
{
    const int64_t b = p >> 3, last = (p + k - 1) >> 3;
    const int sh = p & 7;
    w &= ~(~0ULL >> 1 >> (k - 1));
    for (int64_t i = 0; b + i <= last; i++)
        out[b + i] |= (uint8_t)(i < 8 ? w >> sh >> (56 - 8 * i) : w << (8 - sh));
}

/* Toeplitz hashing of n_blocks consecutive n-bit blocks of the MSB-first bit
 * string x into n_blocks consecutive m-bit outputs in out, (n_blocks m + 7) / 8
 * bytes, with the matrix T[i][j] = seed[m - 1 - i + j] of an (n + m - 1)-bit
 * seed. seed holds the seed in words, bit b of word k being seed bit 64k + b.
 *
 * A block of nw = ceil(n / 64) words, read as big-endian words from its
 * start, is the polynomial x(z) = sum x[j] z^(64 nw - 1 - j) with its words
 * in reverse order. With s(z) = sum seed[k] z^k, output bit i is then
 * coefficient top - i of s x, top = (n + m - 2) + (64 nw - n), so the product's
 * words from the top are the output's big-endian words. A seed longer than
 * a block is multiplied in two halves of nw words; top < 128 nw, so only the
 * product's low 2 nw words are kept.
 *
 * Returns 0, or -1 if the work space cannot be allocated.
 */
int64_t qf_toeplitz(const uint64_t *seed, const uint8_t *x, int64_t n_blocks, int64_t n,
                    int64_t m, uint8_t *out)
{
    const int64_t nw = (n + 63) / 64, sw = (n + m + 62) / 64, top = m - 2 + 64 * nw;
    uint64_t *s = calloc(11 * nw + 256, sizeof *s);
    if (!s)
        return -1;
    uint64_t *xw = s + 2 * nw, *prod = xw + nw, *high = prod + 2 * nw, *w = high + 2 * nw;
    memcpy(s, seed, sw * sizeof *s);
    memset(out, 0, (n_blocks * m + 7) / 8);
    for (int64_t k = 0; k < n_blocks; k++) {
        for (int64_t i = 0; i < nw; i++)
            xw[nw - 1 - i] = get_bits(x, k * n + 64 * i, k * n + n);
        karatsuba(prod, s, xw, nw, w, base);
        if (sw > nw) {
            karatsuba(high, s + nw, xw, nw, w, base);
            for (int64_t i = 0; i < nw; i++)
                prod[nw + i] ^= high[i];
        }
        for (int64_t v = 0; 64 * v < m; v++) {
            const int64_t c = top - 63 - 64 * v, bits = m - 64 * v < 64 ? m - 64 * v : 64;
            uint64_t word = prod[c >> 6] >> (c & 63);
            if (c & 63)
                word |= prod[(c >> 6) + 1] << (64 - (c & 63));
            put_bits(out, k * m + 64 * v, word, bits);
        }
    }
    free(s);
    return 0;
}

/* The battery statistics of the n-bit sequence at bits start to start + n - 1
 * of the MSB-first bit string x, counted in one pass (randtests._bit_stats_py):
 *   stats[0]   the ones
 *   stats[1]   the transitions, the i >= 1 with x[i] != x[i - 1]
 *   stats[2]   the forward cumulative-sum maximum, max over 1 <= j <= n of
 *              |S_j|, where S_j sums the first j bits as +1 and -1
 *   stats[3]   the reverse one, max over 0 <= j < n of |S_n - S_j|
 *   block_ones[k]   the ones in block_size-bit block k, for k < n / block_size
 *   run_counts[c - run_lo]   the run_block-bit blocks whose longest run of
 *              ones, clipped to [run_lo, run_hi], is c; none if run_block is 0
 *   patterns[v]   the cyclic count of the pattern_bits-bit pattern v: the
 *              i < n with x[i], x[(i + 1) % n], ... read MSB first equal to v
 * block_ones holds n / block_size values, run_counts run_hi - run_lo + 1
 * (none if run_block is 0) and patterns 2^pattern_bits. A pattern ends at
 * each bit from bit pattern_bits - 1 on, and the first pattern_bits - 1 bits,
 * taken cyclically, end the patterns that wrap around. Returns 0, or -1,
 * writing nothing, if an argument is out of range.
 */
int64_t qf_bit_stats(const uint8_t *x, int64_t start, int64_t n, int64_t block_size,
                     int64_t run_block, int64_t run_lo, int64_t run_hi, int64_t pattern_bits,
                     int64_t *stats, int64_t *block_ones, int64_t *run_counts,
                     int64_t *patterns)
{
    if (start < 0 || n < 0 || block_size < 1 || run_block < 0 || pattern_bits < 0
        || pattern_bits > 32 || (run_block && (run_lo < 0 || run_hi < run_lo)))
        return -1;
    const int64_t end = start + n, n_patterns = (int64_t)1 << pattern_bits;
    const uint64_t mask = (uint64_t)n_patterns - 1;
    if (run_block)
        memset(run_counts, 0, (run_hi - run_lo + 1) * sizeof *run_counts);
    memset(patterns, 0, n_patterns * sizeof *patterns);
    int64_t ones = 0, trans = 0, s = 0, hi = 0, lo = 0;
    int64_t block_left = block_size, block = 0, n_blocks = 0;
    int64_t run_left = run_block ? run_block : n + 1, run = 0, best = 0;
    uint64_t w = 0, prev = n ? get_bits(x, start, end) >> 63 : 0;
    for (int64_t i = 0; i < n; i += 64) {
        uint64_t word = get_bits(x, start + i, end);
        const int64_t k_end = n - i < 64 ? n - i : 64;
        for (int64_t k = 0; k < k_end; k++, word <<= 1) {
            const uint64_t b = word >> 63;
            ones += b;
            trans += b ^ prev;
            prev = b;
            hi = s > hi ? s : hi;
            lo = s < lo ? s : lo;
            s += 2 * (int64_t)b - 1;
            block += b;
            if (--block_left == 0) {
                block_ones[n_blocks++] = block;
                block = 0;
                block_left = block_size;
            }
            run = (run + 1) & -(int64_t)b;
            best = run > best ? run : best;
            if (--run_left == 0) {
                run_counts[(best < run_lo ? run_lo : best > run_hi ? run_hi : best) - run_lo]++;
                run = best = 0;
                run_left = run_block;
            }
            w = (w << 1 | b) & mask;
            patterns[w] += i + k >= pattern_bits - 1;
        }
    }
    for (int64_t j = 0; n && j < pattern_bits - 1; j++) {
        w = (w << 1 | get_bits(x, start + j % n, end) >> 63) & mask;
        patterns[w] += n + j >= pattern_bits - 1;
    }
    const int64_t top = s > hi ? s : hi, bottom = s < lo ? s : lo;
    stats[0] = ones;
    stats[1] = trans;
    stats[2] = top > -bottom ? top : -bottom;
    stats[3] = s - lo > hi - s ? s - lo : hi - s;
    return 0;
}
