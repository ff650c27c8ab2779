/* The three hot loops of qrng_forge, loaded through ctypes by _native.py.
 *
 * Each kernel has a numpy reference in the Python module that calls it, and
 * the two must agree bit for bit:
 *   qf_split_channels  timetags._split_channels_np
 *   qf_match           coincidence._match_py
 *   qf_fr_accumulate   extract._fr_accumulate_py
 * Callers check dtypes, contiguity and buffer sizes.
 */

#include <stdint.h>
#include <stdlib.h>

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

/* Four-Russians Toeplitz accumulation over packed bytes: for every input
 * byte x[t], out[0:mb] ^= table[x[t]][t:t + mb]. Row 0 of the table must be
 * zero (the reference skips zero bytes). Four input bytes share one pass
 * over out, which cuts the loads and stores of out to a quarter. Needs
 * nx + mb <= row_len. */
void qf_fr_accumulate(const uint8_t *table, int64_t row_len, const uint8_t *x,
                      int64_t nx, int64_t mb, uint8_t *out)
{
    int64_t t = 0;
    for (; t + 4 <= nx; t += 4) {
        const uint8_t *r0 = table + (int64_t)x[t] * row_len + t;
        const uint8_t *r1 = table + (int64_t)x[t + 1] * row_len + t + 1;
        const uint8_t *r2 = table + (int64_t)x[t + 2] * row_len + t + 2;
        const uint8_t *r3 = table + (int64_t)x[t + 3] * row_len + t + 3;
        for (int64_t q = 0; q < mb; q++)
            out[q] ^= r0[q] ^ r1[q] ^ r2[q] ^ r3[q];
    }
    for (; t < nx; t++) {
        const uint8_t *r0 = table + (int64_t)x[t] * row_len + t;
        for (int64_t q = 0; q < mb; q++)
            out[q] ^= r0[q];
    }
}
