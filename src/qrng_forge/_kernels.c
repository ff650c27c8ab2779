/* The hot loops of qrng_forge, loaded through ctypes by _native.py.
 *
 * Each kernel has a numpy reference in the Python module that calls it, and
 * the two must agree bit for bit:
 *   qf_slice_signal    source._slice_py (routing and analyzer outcomes)
 *   qf_thin            source._slice_py (detector efficiency)
 *   qf_jitter          source._slice_py (rint(sigma * z), clipped)
 *   qf_slice_keys      source._slice_order (with qf_slice_unpack, a value
 *   qf_slice_unpack    sort of keys that carry each tag's rank in the slice)
 *   qf_settle          source._settle_py (stable argsort of the whole stream)
 *   qf_dead_time       source._dead_time_keep_py (per-channel dead time)
 *   qf_split_channels  timetags._split_channels_np
 *   qf_match           coincidence._match_py
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

/* i if c, else j, by masks: compilers keep this free of branches */
static inline int64_t pick(int c, int64_t i, int64_t j)
{
    const int64_t mask = -(int64_t)c;
    return (i & mask) | (j & ~mask);
}

/* Signal tags of one source slice, before thinning and jitter.
 *
 * times[0:n] are the slice's pair emission times and section[0:n] their
 * section pairs, 0 (U1, D2), 1 (U2, D1) or 2 (C1, C2). u[0:n_u] holds one
 * uniform per section-2 pair, in pair order, and cum the n_settings x 4
 * cumulative joint-outcome probabilities of the analyzer settings. A
 * section-2 pair at time t >= 0 sees setting (t / dwell) % n_settings and
 * outcome min(#(cum[k] <= u), 3), compared on the same doubles as the
 * reference: outcomes 0 and 1 fire C1, outcomes 0 and 2 fire C2.
 *
 * Writes the tags to (ts, ch) as U1 and D2 of the section-0 pairs, U2 and
 * D1 of the section-1 pairs, the C1 hits, then the C2 hits, each group in
 * pair order, and returns their number. ts must hold 2n + 1 values, ch 2n.
 * Returns -1, writing nothing, if a section is not 0, 1 or 2 or if n_u is
 * not the number of section-2 pairs.
 *
 * Sections and outcomes are random, so the loops do not branch on them:
 * every pair stores its time into each group it might join, and a store
 * that does not count goes to ts[2n], a slot past every group.
 */
int64_t qf_slice_signal(const int64_t *times, const int64_t *section, int64_t n,
                        const double *u, int64_t n_u, const double *cum, int64_t n_settings,
                        int64_t dwell, int64_t *ts, uint8_t *ch)
{
    int64_t count[3] = {0, 0, 0};
    for (int64_t i = 0; i < n; i++) {
        if (section[i] < 0 || section[i] > 2)
            return -1;
        count[section[i]]++;
    }
    if (count[2] != n_u)
        return -1;
    const int64_t sink = 2 * n, u2_start = 2 * count[0], c1_start = u2_start + 2 * count[1];
    const int64_t c2_start = c1_start + count[2];
    int64_t u1 = 0, u2 = u2_start, c = c1_start;
    for (int64_t i = 0; i < n; i++) {
        const int64_t t = times[i], s = section[i];
        ts[pick(s == 0, u1, sink)] = t;
        u1 += s == 0;
        ts[pick(s == 1, u2, sink)] = t;
        u2 += s == 1;
        ts[pick(s == 2, c, sink)] = t;
        c += s == 2;
    }
    memcpy(ts + count[0], ts, count[0] * sizeof *ts);
    memcpy(ts + u2_start + count[1], ts + u2_start, count[1] * sizeof *ts);
    /* the section-2 times sit at c1_start; the C1 hits overwrite them in place */
    int64_t c1 = c1_start, c2 = c2_start;
    for (int64_t k = 0; k < n_u; k++) {
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
    memset(ch, 0, count[0]);
    memset(ch + count[0], 3, count[0]);
    memset(ch + u2_start, 1, count[1]);
    memset(ch + u2_start + count[1], 2, count[1]);
    memset(ch + c1_start, 4, c1 - c1_start);
    memset(ch + c1, 5, c2 - c2_start);
    return c1 + c2 - c2_start;
}

/* Detector efficiency: keeps tag i when u[i] < eta[ch[i]], compacting
 * (ts, ch) in place, and returns how many stay. Channel codes must be < 6. */
int64_t qf_thin(int64_t *ts, uint8_t *ch, int64_t n, const double *u, const double *eta)
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
void qf_jitter(int64_t *ts, int64_t n, const double *z, double sigma, int64_t duration)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t t = ts[i] + (int64_t)rint(sigma * z[i]);
        ts[i] = t < 0 ? 0 : t > duration ? duration : t;
    }
}

/* Channel codes of the signal groups, in their order in a slice:
 * U1, D2, U2, D1, C1, C2. */
static const uint8_t signal_group_channel[6] = {0, 3, 1, 2, 4, 5};

/* Sort keys for one slice's tags: (ts, ch)[0:n_dark] are its dark tags, by
 * channel code, and (ts, ch)[n_dark:n] its signal tags in group order. The
 * key of a tag is (t - lo) << 4 | rank, with lo the slice's earliest time,
 * rank = ch for a dark tag and 6 + its group's position for a signal tag.
 * Ranks rise in slice order, and tags with equal time and rank are
 * identical, so sorting the keys by value gives the stable time order of
 * the slice.
 *
 * Writes keys[0:n] and *lo and returns 0, or returns -1 without writing
 * when a channel code exceeds 5 or the time span needs more than 59 bits.
 */
int qf_slice_keys(const int64_t *ts, const uint8_t *ch, int64_t n, int64_t n_dark,
                  uint64_t *keys, int64_t *lo)
{
    uint8_t rank_of[12];
    for (int r = 0; r < 6; r++) {
        rank_of[r] = r;
        rank_of[6 + signal_group_channel[r]] = 6 + r;
    }
    int64_t min = n ? ts[0] : 0, max = min;
    int bad_code = 0;
    for (int64_t i = 0; i < n; i++) {
        min = ts[i] < min ? ts[i] : min;
        max = ts[i] > max ? ts[i] : max;
        bad_code |= ch[i] > 5;
    }
    if (bad_code || ((uint64_t)max - (uint64_t)min) >> 59)
        return -1;
    for (int64_t i = 0; i < n; i++)
        keys[i] = ((uint64_t)ts[i] - (uint64_t)min) << 4 | rank_of[(i >= n_dark) * 6 + ch[i]];
    *lo = min;
    return 0;
}

/* The tags of sorted keys from qf_slice_keys, written to (out_ts, out_ch). */
void qf_slice_unpack(const uint64_t *keys, int64_t n, int64_t lo, int64_t *out_ts,
                     uint8_t *out_ch)
{
    uint8_t channel_of[12];
    for (int r = 0; r < 6; r++) {
        channel_of[r] = r;
        channel_of[6 + r] = signal_group_channel[r];
    }
    for (int64_t i = 0; i < n; i++) {
        out_ts[i] = (int64_t)((uint64_t)lo + (keys[i] >> 4));
        out_ch[i] = channel_of[keys[i] & 15];
    }
}

/* Stable insertion sort of (ts, ch) by ts, in place. Each tag moves past
 * the earlier tags with a strictly larger time, so equal times keep their
 * order, and the work is linear when few tags are out of place. Once more
 * than max_moves moves have been made it stops, after finishing the tag in
 * hand, and returns 0: the arrays then hold a permutation that kept the
 * order of equal times, which a stable sort completes to the same result.
 * Returns 1 when the arrays are sorted. */
int qf_settle(int64_t *ts, uint8_t *ch, int64_t n, int64_t max_moves)
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
        if (moves > max_moves)
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

/* The best matching of some prefixes of a cluster: its pairs and total |delta|. */
typedef struct {
    int64_t n, cost;
} cell;

/* More pairs, or as many at a smaller total |delta|. */
static int better(cell x, cell y)
{
    return x.n > y.n || (x.n == y.n && x.cost < y.cost);
}

/* Exact matching of two sorted timestamp arrays within |tb - ta| <= tau.
 *
 * In merged time order, consecutive tags more than tau apart can never be
 * matched across that gap, so such gaps cut the stream into independent
 * clusters. A cluster of one a-tag and one b-tag is a match. Every other
 * cluster holding both sides is solved by a dynamic programme over
 * D[i][j], the best matching of its first i a-tags and first j b-tags:
 * some optimal matching never crosses, so D[i][j] is the best of D[i-1][j]
 * (a[i-1] unmatched), D[i][j-1] (b[j-1] unmatched) and D[i-1][j-1] plus
 * the pair (a[i-1], b[j-1]) if it lies in the window. Row i keeps only the
 * band lo[i] <= j <= hi[i] of b-prefixes ending within tau of a[i-1]:
 * below it D[i][j] = D[i-1][j], and above it D[i][j] = D[i][hi[i]], since
 * no later b-tag is within tau of any of the i a-tags.
 *
 * Tie rule: the walk back starts at the cluster's last tags and, at each
 * step, leaves the last a-tag unmatched if that keeps the optimum, else
 * leaves the last b-tag unmatched, else matches the two.
 *
 * Matches go to (ma, mb) in time order; at most min(na, nb) are written.
 * Returns their number, or -1 if the work space cannot be allocated.
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
        const int64_t n = i - i0, m = j - j0, *a = ta + i0, *b = tb + j0;
        if (n == 1 && m == 1) {
            ma[k] = i0;
            mb[k++] = j0;
        }
        if (!n || !m || n + m == 2)
            continue;

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
        k += D(n, m).n;
        int64_t r = n, c = m, w = k;
        while (D(r, c).n > 0) {
            if (!better(D(r, c), D(r - 1, c))) {
                r--;
            } else if (!better(D(r, c), D(r, c - 1))) {
                c--;
            } else {
                ma[--w] = i0 + --r;
                mb[w] = j0 + --c;
            }
        }
#undef D
        free(cells);
        free(lo);
    }
    return k;
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
