/* The three hot loops of qrng_forge, loaded through ctypes by _native.py.
 *
 * Each kernel has a numpy reference in the Python module that calls it, and
 * the two must agree bit for bit:
 *   qf_split_channels  timetags._split_channels_np
 *   qf_cluster_scan    coincidence._cluster_scan_np
 *   qf_fr_accumulate   extract._fr_accumulate_py
 * Callers check dtypes, contiguity and buffer sizes.
 */

#include <stdint.h>

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

/* Gap-tau cluster scan of two sorted timestamp arrays.
 *
 * In merged time order, consecutive tags more than tau apart can never be
 * matched across that gap, so such gaps cut the stream into independent
 * clusters. A cluster of one a-tag and one b-tag is a match, written to
 * (ma, mb). Every other cluster holding both sides is written as a row
 * [a0, a1, b0, b1] of `bounds` (tags ta[a0:a1] and tb[b0:b1]) for the exact
 * solver. Clusters holding one side only are skipped.
 *
 * state = {a cursor, b cursor, matches written} on entry and on return, so
 * a scan that fills `bounds` (cap rows) resumes where it stopped. Returns the
 * number of rows written; fewer than cap means the scan is complete. At most
 * min(na, nb) matches are written in total.
 */
int64_t qf_cluster_scan(const int64_t *ta, int64_t na, const int64_t *tb, int64_t nb,
                        int64_t tau, int64_t *state, int64_t *ma, int64_t *mb,
                        int64_t *bounds, int64_t cap)
{
    int64_t i = state[0], j = state[1], k = state[2], c = 0;
    while (i < na && j < nb && c < cap) {
        const int64_t i0 = i, j0 = j;
        int64_t last = ta[i] <= tb[j] ? ta[i++] : tb[j++];
        for (;;) {
            int64_t t;
            int take_a;
            if (i < na && (j >= nb || ta[i] <= tb[j])) {
                t = ta[i];
                take_a = 1;
            } else if (j < nb) {
                t = tb[j];
                take_a = 0;
            } else {
                break;
            }
            if (t - last > tau)
                break;
            last = t;
            if (take_a)
                i++;
            else
                j++;
        }
        const int64_t ca = i - i0, cb = j - j0;
        if (ca == 1 && cb == 1) {
            ma[k] = i0;
            mb[k] = j0;
            k++;
        } else if (ca && cb) {
            int64_t *row = bounds + 4 * c++;
            row[0] = i0;
            row[1] = i;
            row[2] = j0;
            row[3] = j;
        }
    }
    state[0] = i;
    state[1] = j;
    state[2] = k;
    return c;
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
