/* The hot loops of qrng_forge, loaded through ctypes by _native.py.
 *
 * Each kernel has a numpy reference in the Python module that calls it, and
 * the two must agree bit for bit:
 *   qf_simulate        source._slice_py, slice by slice: a range of source
 *                      slices, each drawn from a Philox keyed as
 *                      source._slice_rng keys it, through ports of numpy's
 *                      samplers, then routed, thinned, jittered and sorted
 *   qf_sample          numpy.random.Generator's standard_normal, integers,
 *                      random and poisson (the samplers of qf_simulate, one
 *                      at a time, for tests)
 *   qf_slice_key       numpy's SeedSequence([seed, s]).generate_state(2, uint64)
 *   qf_slice_sort      source._slice_order (qf_simulate's stable sort of one
 *                      slice, an LSD radix sort, for tests)
 *   qf_settle          source._settle_py (stable argsort of the whole stream)
 *   qf_dead_time       source._dead_time_keep_py (per-channel dead time)
 *   qf_coincide        coincidence._coincide_py (the channel split,
 *                      find_coincidences per section pair and assign_bits):
 *                      one pass over a tag stream that matches its three
 *                      section pairs by a cluster scan with a banded DP per
 *                      pileup (coincidence._match_py, whose DP is a full
 *                      table); a channel of role above 5 is skipped after
 *                      its single is counted, so the same pass matches the
 *                      C1-C2 pair alone, for coincidence.bell_coincidences
 *                      and for find_coincidences on two merged arrays
 *   qf_toeplitz        extract._FftHasher, block by block: a range of blocks,
 *                      each hashed as one middle product of the seed and the
 *                      block (qf_middle_product runs it on each base case,
 *                      the portable one, pclmul's or AVX-512's, for tests)
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

/* realloc that keeps p, and sets *failed, when it cannot grow it */
static void *regrow(void *p, size_t bytes, int *failed)
{
    void *q = realloc(p, bytes);
    *failed |= !q;
    return q ? q : p;
}

/* ---------------------------------------------------------------------------
 * Source slices: qf_simulate draws each slice from a Philox of its own,
 * through ports of numpy's samplers, so that it makes source._slice_py's
 * draws bit for bit, and sorts the slice by time.
 */

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

#define RADIX_BITS 10
#define RADIX (1 << RADIX_BITS)
/* the digits of a 64-bit time, the last one short */
#define DIGITS ((64 + RADIX_BITS - 1) / RADIX_BITS)

/* Stable sort of (ts, ch)[0:n] by time into (out_ts, out_ch): an LSD radix
 * sort of t - lo, lo the least time, RADIX_BITS bits a pass. (ts, ch) is
 * overwritten, and count must hold DIGITS rows of RADIX values.
 *
 * One read counts every digit that the span of the times needs. The passes
 * then move the tags back and forth between the two pairs of arrays; the
 * least tag's digits are all 0, so a pass whose count of digit 0 is n finds
 * one digit in every tag, and is skipped. No branch depends on the order of
 * the tags, so tags out of order cost no more than tags in order. */
static void sort_slice(int64_t *ts, uint8_t *ch, int64_t n, int64_t *out_ts, uint8_t *out_ch,
                       int64_t (*count)[RADIX])
{
    if (n <= 0)
        return;
    int64_t lo = ts[0], hi = ts[0];
    for (int64_t i = 1; i < n; i++) {
        lo = ts[i] < lo ? ts[i] : lo;
        hi = ts[i] > hi ? ts[i] : hi;
    }
    const uint64_t span = (uint64_t)hi - (uint64_t)lo;
    int digits = 0;  /* at most DIGITS, tested first: no shift reaches 64 */
    while (digits < DIGITS && span >> digits * RADIX_BITS)
        digits++;
    memset(count, 0, digits * sizeof *count);
    for (int64_t i = 0; i < n; i++) {
        const uint64_t key = (uint64_t)ts[i] - (uint64_t)lo;
        for (int d = 0; d < digits; d++)
            count[d][key >> d * RADIX_BITS & (RADIX - 1)]++;
    }
    int64_t *t[2] = {ts, out_ts};
    uint8_t *c[2] = {ch, out_ch};
    int src = 0;
    for (int d = 0; d < digits; d++) {
        int64_t *at = count[d];
        if (at[0] == n)
            continue;
        for (int64_t k = 0, sum = 0; k < RADIX; k++) {
            const int64_t m = at[k];
            at[k] = sum;
            sum += m;
        }
        const int shift = d * RADIX_BITS;
        const int64_t *from = t[src];
        const uint8_t *from_ch = c[src];
        int64_t *to = t[!src];
        uint8_t *to_ch = c[!src];
        for (int64_t i = 0; i < n; i++) {
            const int64_t j = at[((uint64_t)from[i] - (uint64_t)lo) >> shift & (RADIX - 1)]++;
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

/* qf_simulate's sort of one slice, sort_slice, for tests. Its counts live on
 * the stack of the calling thread, which tests make the main one. */
void qf_slice_sort(int64_t *ts, uint8_t *ch, int64_t n, int64_t *out_ts, uint8_t *out_ch)
{
    int64_t count[DIGITS][RADIX];
    sort_slice(ts, ch, n, out_ts, out_ch, count);
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

__extension__ typedef unsigned __int128 u128;

/* Philox4x64-10 as numpy's Philox runs it: the 256-bit counter steps by one
 * before each block of four words, the words go out in order, and a 32-bit
 * draw takes the low half of a word and keeps the high half for the next
 * one. */
typedef struct {
    uint64_t ctr[4], key[2], buffer[4];
    int next; /* the buffer's next word, 4 when it is used up */
    int has_half;
    uint32_t half;
} philox;

/* A fresh generator of key (k0, k1): counter 0, an empty buffer and no half
 * word. */
static void philox_init(philox *p, uint64_t k0, uint64_t k1)
{
    memset(p, 0, sizeof *p);
    p->key[0] = k0;
    p->key[1] = k1;
    p->next = 4;
}

/* The counter's next block of four words, into the buffer. */
static void philox_refill(philox *p)
{
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

static inline uint64_t next64(philox *p)
{
    if (p->next == 4)
        philox_refill(p);
    return p->buffer[p->next++];
}

static inline uint32_t next32(philox *p)
{
    if (p->has_half) {
        p->has_half = 0;
        return p->half;
    }
    const uint64_t w = next64(p);
    p->has_half = 1;
    p->half = (uint32_t)(w >> 32);
    return (uint32_t)w;
}

/* A uniform double in [0, 1), from the top 53 bits of a word. */
static inline double next_double(philox *p)
{
    return (double)(next64(p) >> 11) * (1.0 / 9007199254740992.0);
}

/* ---------------------------------------------------------------------------
 * numpy's samplers, ported from numpy/random/src/distributions/distributions.c
 * to take a philox, so that the compiler inlines the generator into each
 * loop. Each draws what numpy.random.Generator draws from the same Philox
 * state, bit for bit (qf_sample runs them for tests). The ziggurat tables
 * are numpy's, under its licence:
 *
 * Copyright (c) 2005-2025, NumPy Developers.
 * All rights reserved.
 *
 * Redistribution and use in source and binary forms, with or without
 * modification, are permitted provided that the following conditions are
 * met:
 *
 *     * Redistributions of source code must retain the above copyright
 *        notice, this list of conditions and the following disclaimer.
 *
 *     * Redistributions in binary form must reproduce the above
 *        copyright notice, this list of conditions and the following
 *        disclaimer in the documentation and/or other materials provided
 *        with the distribution.
 *
 *     * Neither the name of the NumPy Developers nor the names of any
 *        contributors may be used to endorse or promote products derived
 *        from this software without specific prior written permission.
 *
 * THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
 * "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
 * LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
 * A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
 * OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
 * SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
 * LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
 * DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
 * THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
 * (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
 * OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
 */

/* The 256-level ziggurat of the standard normal (Marsaglia and Tsang, J.
 * Stat. Softw. 5(8), 2000), as numpy tabulates it, with the density scaled
 * to 1 at 0: level i >= 1 is the rectangle of x in [0, wi_double[i] * 2^52)
 * and density in [fi_double[i], fi_double[i - 1]], which lies under the
 * density up to x = ki_double[i] * wi_double[i]. Level 0 is the base strip,
 * the tail beyond ZIGGURAT_NOR_R included. */
#define ZIGGURAT_NOR_R 3.6541528853610087963519472518
#define ZIGGURAT_NOR_INV_R 0.27366123732975827203338247596

static const uint64_t ki_double[256] = {
    0xef33d8025ef6a, 0x0000000000000, 0xc08be98fbc6a8, 0xda354fabd8142, 0xe51f67ec1eeea,
    0xeb255e9d3f77e, 0xeef4b817ecab9, 0xf19470afa44aa, 0xf37ed61ffcb18, 0xf4f469561255c,
    0xf61a5e41ba396, 0xf707a755396a4, 0xf7cb2ec28449a, 0xf86f10c6357d3, 0xf8fa6578325de,
    0xf9724c74dd0da, 0xf9da907dbf509, 0xfa360f581fa74, 0xfa86fde5b4bf8, 0xfacf160d354dc,
    0xfb0fb6718b90f, 0xfb49f8d5374c6, 0xfb7ec2366fe77, 0xfbaece9a1e50e, 0xfbdab9d040bed,
    0xfc03060ff6c57, 0xfc2821037a248, 0xfc4a67ae25bd1, 0xfc6a2977aee31, 0xfc87aa92896a4,
    0xfca325e4bde85, 0xfcbcce902231a, 0xfcd4d12f839c4, 0xfceb54d8fec99, 0xfd007bf1dc930,
    0xfd1464dd6c4e6, 0xfd272a8e2f450, 0xfd38e4ff0c91e, 0xfd49a9990b478, 0xfd598b8920f53,
    0xfd689c08e99ec, 0xfd76ea9c8e832, 0xfd848547b08e8, 0xfd9178bad2c8c, 0xfd9dd07a7add2,
    0xfda9970105e8c, 0xfdb4d5dc02e20, 0xfdbf95c5bfcd0, 0xfdc9debb99a7d, 0xfdd3b8118729d,
    0xfddd288342f90, 0xfde6364369f64, 0xfdeee708d514e, 0xfdf7401a6b42e, 0xfdff46599ed40,
    0xfe06fe4bc24f2, 0xfe0e6c225a258, 0xfe1593c28b84c, 0xfe1c78cbc3f99, 0xfe231e9db1caa,
    0xfe29885da1b91, 0xfe2fb8fb54186, 0xfe35b33558d4a, 0xfe3b799d0002a, 0xfe410e99ead7f,
    0xfe46746d47734, 0xfe4bad34c095c, 0xfe50baed29524, 0xfe559f74ebc78, 0xfe5a5c8e41212,
    0xfe5ef3e138689, 0xfe6366fd91078, 0xfe67b75c6d578, 0xfe6be661e11aa, 0xfe6ff55e5f4f2,
    0xfe73e5900a702, 0xfe77b823e9e39, 0xfe7b6e37070a2, 0xfe7f08d774243, 0xfe8289053f08c,
    0xfe85efb35173a, 0xfe893dc840864, 0xfe8c741f0cebc, 0xfe8f9387d4ef6, 0xfe929cc879b1d,
    0xfe95909d388ea, 0xfe986fb939aa2, 0xfe9b3ac714866, 0xfe9df2694b6d5, 0xfea0973abe67c,
    0xfea329cf166a4, 0xfea5aab32952c, 0xfea81a6d5741a, 0xfeaa797de1cf0, 0xfeacc85f3d920,
    0xfeaf07865e63c, 0xfeb13762fec13, 0xfeb3585fe2a4a, 0xfeb56ae3162b4, 0xfeb76f4e284fa,
    0xfeb965fe62014, 0xfebb4f4cf9d7c, 0xfebd2b8f449d0, 0xfebefb16e2e3e, 0xfec0be31ebde8,
    0xfec2752b15a15, 0xfec42049dafd3, 0xfec5bfd29f196, 0xfec75406ceef4, 0xfec8dd2500cb4,
    0xfeca5b6911f12, 0xfecbcf0c427fe, 0xfecd38454fb15, 0xfece97488c8b3, 0xfecfec47f91b7,
    0xfed1377358528, 0xfed278f844903, 0xfed3b10242f4c, 0xfed4dfbad586e, 0xfed605498c3dd,
    0xfed721d414fe8, 0xfed8357e4a982, 0xfed9406a42cc8, 0xfeda42b85b704, 0xfedb3c8746ab4,
    0xfedc2df416652, 0xfedd171a46e52, 0xfeddf813c8ad3, 0xfeded0f909980, 0xfedfa1e0fd414,
    0xfee06ae124bc4, 0xfee12c0d95a06, 0xfee1e579006e0, 0xfee29734b6524, 0xfee34150ae4bc,
    0xfee3e3db89b3c, 0xfee47ee2982f4, 0xfee51271db086, 0xfee59e9407f41, 0xfee623528b42e,
    0xfee6a0b5897f1, 0xfee716c3e077a, 0xfee7858327b82, 0xfee7ecf7b06ba, 0xfee84d2484ab2,
    0xfee8a60b66343, 0xfee8f7accc851, 0xfee94207e25da, 0xfee9851a829ea, 0xfee9c0e13485c,
    0xfee9f557273f4, 0xfeea22762ccae, 0xfeea4836b42ac, 0xfeea668fc2d71, 0xfeea7d76ed6fa,
    0xfeea8ce04fa0a, 0xfeea94be8333b, 0xfeea950296410, 0xfeea8d9c0075e, 0xfeea7e7897654,
    0xfeea678481d24, 0xfeea48aa29e83, 0xfeea21d22e4da, 0xfee9f2e352024, 0xfee9bbc26af2e,
    0xfee97c524f2e4, 0xfee93473c0a3a, 0xfee8e40557516, 0xfee88ae369c7a, 0xfee828e7f3dfd,
    0xfee7bdea7b888, 0xfee749bff37ff, 0xfee6cc3a9bd5e, 0xfee64529e007e, 0xfee5b45a32888,
    0xfee51994e57b6, 0xfee474a0006cf, 0xfee3c53e12c50, 0xfee30b2e02ad8, 0xfee2462ad8205,
    0xfee175eb83c5a, 0xfee09a22a1447, 0xfedfb27e349cc, 0xfedebea76216c, 0xfeddbe422047e,
    0xfedcb0ece39d3, 0xfedb964042cf4, 0xfeda6dce938c9, 0xfed937237e98d, 0xfed7f1c38a836,
    0xfed69d2b9c02b, 0xfed538d06ae00, 0xfed3c41dea422, 0xfed23e76a2fd8, 0xfed0a732fe644,
    0xfecefda07fe34, 0xfecd4100eb7b8, 0xfecb708956eb4, 0xfec98b61230c1, 0xfec790a0da978,
    0xfec57f50f31fe, 0xfec356686c962, 0xfec114cb4b335, 0xfebeb948e6fd0, 0xfebc429a0b692,
    0xfeb9af5ee0cdc, 0xfeb6fe1c98542, 0xfeb42d3ad1f9e, 0xfeb13b00b2d4b, 0xfeae2591a02e9,
    0xfeaaeae992257, 0xfea788d8ee326, 0xfea3fcffd73e5, 0xfea044c8dd9f6, 0xfe9c5d62f563b,
    0xfe9843ba947a4, 0xfe93f471d4728, 0xfe8f6bd76c5d6, 0xfe8aa5dc4e8e6, 0xfe859e07ab1ea,
    0xfe804f690a940, 0xfe7ab488233c0, 0xfe74c751f6aa5, 0xfe6e8102aa202, 0xfe67da0b6abd8,
    0xfe60c9f38307e, 0xfe5947338f742, 0xfe51470977280, 0xfe48bd436f458, 0xfe3f9bffd1e37,
    0xfe35d35eeb19c, 0xfe2b5122fe4fe, 0xfe20003995557, 0xfe13c82788314, 0xfe068c4ee67b0,
    0xfdf82b02b71aa, 0xfde87c57efeaa, 0xfdd7509c63bfd, 0xfdc46e529bf13, 0xfdaf8f82e0282,
    0xfd985e1b2ba75, 0xfd7e6ef48cf04, 0xfd613adbd650b, 0xfd40149e2f012, 0xfd1a1a7b4c7ac,
    0xfcee204761f9e, 0xfcba8d85e11b2, 0xfc7d26ecd2d22, 0xfc32b2f1e22ed, 0xfbd6581c0b83a,
    0xfb606c4005434, 0xfac40582a2874, 0xf9e971e014598, 0xf89fa48a41dfc, 0xf66c5f7f0302c,
    0xf1a5a4b331c4a,
};
static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51,
};
static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10,
};

/* A standard normal, as numpy's random_standard_normal draws it. One word
 * gives the level (its low 8 bits), the sign (bit 8) and a 52-bit magnitude.
 * Inside the level's part under the density, 99.3% of the time, the signed
 * magnitude is the draw. Otherwise level 0 draws from the tail and the other
 * levels test the wedge against the density with a uniform, and a rejected
 * draw starts over. slow, unless NULL, counts the draws that enter the tail
 * (slow[0]) and the wedge test (slow[1]). */
static inline double standard_normal(philox *p, int64_t *slow)
{
    for (;;) {
        const uint64_t r = next64(p);
        const int idx = r & 0xff;
        const uint64_t rabs = r >> 9 & 0x000fffffffffffffu;
        union {
            double d;
            uint64_t u;
        } x = {(double)rabs * wi_double[idx]};
        x.u ^= (r >> 8 & 1) << 63; /* the sign, without a branch */
        if (rabs < ki_double[idx])
            return x.d;
        if (idx == 0) {
            if (slow)
                slow[0]++;
            for (;;) {
                /* 1 - U, not U, so that the log never sees 0 */
                const double xx = -ZIGGURAT_NOR_INV_R * log1p(-next_double(p));
                const double yy = -log1p(-next_double(p));
                if (yy + yy > xx * xx)
                    return rabs >> 8 & 1 ? -(ZIGGURAT_NOR_R + xx) : ZIGGURAT_NOR_R + xx;
            }
        }
        if (slow)
            slow[1]++;
        if ((fi_double[idx - 1] - fi_double[idx]) * next_double(p) + fi_double[idx]
            < exp(-0.5 * x.d * x.d))
            return x.d;
    }
}

/* off plus an integer uniform in [0, rng], n times, as numpy's
 * random_bounded_uint64_fill draws them for a range below 2^32 with
 * use_masked false: Lemire's multiply and reject (ACM TOMACS 29(1), 3, 2019)
 * on 32-bit draws. Range 0 draws nothing, and range 2^32 - 1 takes each
 * 32-bit draw as it is. numpy computes the threshold only once a product's
 * low word falls below rng + 1; the threshold is below rng + 1 itself, so
 * computing it first rejects the same draws. */
static void bounded_fill(philox *p, uint64_t off, uint32_t rng, int64_t n, uint64_t *out)
{
    if (rng == 0 || rng == UINT32_MAX) {
        for (int64_t i = 0; i < n; i++)
            out[i] = off + (rng ? next32(p) : 0);
        return;
    }
    const uint32_t excl = rng + 1, threshold = (UINT32_MAX - rng) % excl;
    for (int64_t i = 0; i < n; i++) {
        uint64_t m = (uint64_t)next32(p) * excl;
        while ((uint32_t)m < threshold)
            m = (uint64_t)next32(p) * excl;
        out[i] = off + (m >> 32);
    }
}

/* log Gamma(x), as numpy's random_loggam computes it: Stirling's series at
 * x + n >= 7, and the recurrence down to x. */
static double loggam(double x)
{
    static const double a[10] = {8.333333333333333e-02, -2.777777777777778e-03,
                                 7.936507936507937e-04, -5.952380952380952e-04,
                                 8.417508417508418e-04, -1.917526917526918e-03,
                                 6.410256410256410e-03, -2.955065359477124e-02,
                                 1.796443723688307e-01, -1.39243221690590e+00};
    if (x == 1.0 || x == 2.0)
        return 0.0;
    const int64_t n = x < 7.0 ? (int64_t)(7 - x) : 0;
    double x0 = x + n;
    const double x2 = (1.0 / x0) * (1.0 / x0), lg2pi = 1.8378770664093453e+00;
    double gl0 = a[9];
    for (int k = 8; k >= 0; k--) {
        gl0 *= x2;
        gl0 += a[k];
    }
    double gl = gl0 / x0 + 0.5 * lg2pi + (x0 - 0.5) * log(x0) - x0;
    if (x < 7.0)
        for (int64_t k = 1; k <= n; k++) {
            gl -= log(x0 - 1.0);
            x0 -= 1.0;
        }
    return gl;
}

/* A Poisson draw of mean lam >= 10 by the transformed rejection PTRS
 * (Hörmann, Insurance Math. Econom. 12, 39, 1993), as numpy draws it. */
static int64_t poisson_ptrs(philox *p, double lam)
{
    const double slam = sqrt(lam), loglam = log(lam), b = 0.931 + 2.53 * slam;
    const double a = -0.059 + 0.02483 * b, invalpha = 1.1239 + 1.1328 / (b - 3.4);
    const double vr = 0.9277 - 3.6224 / (b - 2);
    for (;;) {
        const double u = next_double(p) - 0.5, v = next_double(p), us = 0.5 - fabs(u);
        const int64_t k = (int64_t)floor((2 * a / us + b) * u + lam + 0.43);
        if (us >= 0.07 && v <= vr)
            return k;
        if (k < 0 || (us < 0.013 && v > us))
            continue;
        /* v = 0 makes log(v) -inf, which accepts */
        if (log(v) + log(invalpha) - log(a / (us * us) + b) <= -lam + k * loglam - loggam(k + 1))
            return k;
    }
}

/* A Poisson draw of mean lam >= 0, as numpy's random_poisson draws it: PTRS
 * from lam = 10 on, 0 at lam = 0, and otherwise the count of uniforms whose
 * running product stays above exp(-lam). */
static int64_t poisson(philox *p, double lam)
{
    if (lam >= 10)
        return poisson_ptrs(p, lam);
    if (lam == 0)
        return 0;
    const double enlam = exp(-lam);
    double prod = 1.0;
    for (int64_t k = 0;; k++) {
        prod *= next_double(p);
        if (!(prod > enlam))
            return k;
    }
}

/* Signal tags of one source slice, before thinning and jitter.
 *
 * times[0:n] are the slice's pair emission times and section[0:n] their
 * section pairs, 0 (U1, D2), 1 (U2, D1) or 2 (C1, C2), of which there are
 * per_section[0:3]. Each section-2 pair draws one uniform u from p, in pair
 * order, and cum holds the n_settings x 4 cumulative joint-outcome
 * probabilities of the analyzer settings. A section-2 pair at time t >= 0
 * sees setting (t / dwell) % n_settings and outcome min(#(cum[k] <= u), 3),
 * compared on the same doubles as the reference: outcomes 0 and 1 fire C1,
 * outcomes 0 and 2 fire C2.
 *
 * Writes the tags to (ts, ch) as U1 and D2 of the section-0 pairs, U2 and
 * D1 of the section-1 pairs, the C1 hits, then the C2 hits, each group in
 * pair order, and returns their number. ts must hold 2n + 1 values, ch 2n.
 *
 * Sections and outcomes are random, so the loops do not branch on them:
 * every pair stores its time into each group it might join, and a store
 * that does not count goes to ts[2n], a slot past every group.
 */
static int64_t route_pairs(philox *p, const uint64_t *times, const uint64_t *section, int64_t n,
                           const int64_t *per_section, const double *cum, int64_t n_settings,
                           int64_t dwell, int64_t *ts, uint8_t *ch)
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
        const double *row = cum + 4 * ((t / dwell) % n_settings), x = next_double(p);
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

/* Detector efficiency: each tag i draws a uniform u from p, in tag order,
 * and stays when u < eta[ch[i]]. Compacts (ts, ch) in place and returns how
 * many stay. Channel codes must be < 6. */
static int64_t thin_tags(philox *p, int64_t *ts, uint8_t *ch, int64_t n, const double *eta)
{
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++)
        if (next_double(p) < eta[ch[i]]) {
            ts[k] = ts[i];
            ch[k++] = ch[i];
        }
    return k;
}

/* Timing jitter: ts[i] += rint(sigma * z) for a standard normal z drawn from
 * p per tag, in tag order, then clipped to [0, duration]. sigma * z is the
 * double that numpy's normal(0, sigma) draws from the same generator state. */
static void jitter_tags(philox *p, int64_t *ts, int64_t n, double sigma, int64_t duration)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t t = ts[i] + (int64_t)rint(sigma * standard_normal(p, NULL));
        ts[i] = t < 0 ? 0 : t > duration ? duration : t;
    }
}

/* The scratch of one qf_simulate call: sort_slice's digit counts, allocated
 * once on the heap, since the call may run on a Python thread with a small
 * stack, and, grown as its slices need, pair draws for cap_pairs pairs, the
 * slice's tags for cap_tags tags (the sort's scratch), and dark tags for
 * cap_dark. */
typedef struct {
    int64_t (*count)[RADIX];
    uint64_t *times, *section, *dark_ts;
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
 * analyzer settings, as in route_pairs. slice_ps must be at most 2^32, so
 * that the uniform times take 32-bit draws.
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
    slice_scratch w;
    memset(&w, 0, sizeof w);
    w.count = malloc(DIGITS * sizeof *w.count);
    w.failed = !w.count;
    int thin = 0;
    for (int c = 0; c < 6; c++)
        thin |= eta[c] < 1.0;
    int64_t s = s0, written = 0;
    counts[1] = 0;
    for (; s < s1; s++) {
        uint64_t key[2];
        qf_slice_key(seed, (uint64_t)s, key);
        philox_init(&p, key[0], key[1]);
        const int64_t t0 = s * slice_ps, t1 = t0 + slice_ps < duration ? t0 + slice_ps : duration;
        const double width = (double)(t1 - t0);
        const uint32_t range = (uint32_t)(t1 - 1 - t0);

        const int64_t n_pairs = poisson(&p, rate * width);
        reserve_pairs(&w, n_pairs);
        reserve_tags(&w, 2 * n_pairs + 1);
        if (w.failed)
            break;
        bounded_fill(&p, (uint64_t)t0, range, n_pairs, w.times);
        bounded_fill(&p, 0, 2, n_pairs, w.section);
        int64_t per_section[3] = {0, 0, 0};
        for (int64_t i = 0; i < n_pairs; i++)
            per_section[w.section[i]]++;
        int64_t n = route_pairs(&p, w.times, w.section, n_pairs, per_section, cum, n_settings,
                                dwell, w.ts, w.ch);
        if (thin)
            n = thin_tags(&p, w.ts, w.ch, n, eta);
        if (sigma > 0)
            jitter_tags(&p, w.ts, n, sigma, duration);

        int64_t n_dark = 0;
        for (int c = 0; c < 6; c++) {
            const int64_t k = dark[c] > 0 ? poisson(&p, dark[c] * width) : 0;
            if (!k)
                continue;
            reserve_dark(&w, n_dark + k);
            if (w.failed)
                break;
            bounded_fill(&p, (uint64_t)t0, range, k, w.dark_ts + n_dark);
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
        sort_slice(w.ts, w.ch, n, ts + written, ch + written, w.count);
        written += n;
    }
    free(w.times);
    free(w.section);
    free(w.ts);
    free(w.count);
    free(w.ch);
    free(w.dark_ts);
    free(w.dark_ch);
    counts[0] = written;
    return w.failed ? -1 : s;
}

/* n draws of one sampler from a fresh Philox of key (key0, key1), as
 * numpy.random.Generator(Philox(key=[key0, key1])) makes them, for tests:
 * kind 0 standard normals, 1 off plus integers in [0, rng] (integers(off,
 * off + rng + 1)), 2 uniforms, 3 Poisson draws of mean lam. out receives n
 * doubles (kinds 0 and 2) or 64-bit integers (kinds 1 and 3), and slow[0:2]
 * the normals that entered the ziggurat's tail and its wedge test. Returns 0,
 * or -1, drawing nothing, for another kind or a range of 2^32 or more. */
int64_t qf_sample(uint64_t key0, uint64_t key1, int64_t kind, uint64_t off, uint64_t rng,
                  double lam, int64_t n, void *out, int64_t *slow)
{
    philox p;
    philox_init(&p, key0, key1);
    double *f = out;
    int64_t *k = out;
    slow[0] = slow[1] = 0;
    if (kind == 0)
        for (int64_t i = 0; i < n; i++)
            f[i] = standard_normal(&p, slow);
    else if (kind == 1 && rng <= UINT32_MAX)
        bounded_fill(&p, off, (uint32_t)rng, n, out);
    else if (kind == 2)
        for (int64_t i = 0; i < n; i++)
            f[i] = next_double(&p);
    else if (kind == 3)
        for (int64_t i = 0; i < n; i++)
            k[i] = poisson(&p, lam);
    else
        return -1;
    return 0;
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

/* ---------------------------------------------------------------------------
 * Coincidences. In merged time order, consecutive tags of a channel pair
 * more than tau apart can never be matched across that gap, so such gaps
 * cut the pair's tags into independent clusters. A cluster of one a-tag and
 * one b-tag is a match; every other cluster holding both sides is solved by
 * solve_cluster. qf_coincide matches the three section pairs of a tag
 * stream in one pass over it; any two sorted arrays are matched as one such
 * pair of a merged stream.
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
    /* differences in uint64: a - tau and a + tau can leave int64 */
    for (int64_t r = 1; r <= n; r++) {
        const int64_t t = a[r - 1];
        while (l < m && b[l] < t && (uint64_t)t - (uint64_t)b[l] > (uint64_t)tau)
            l++;
        while (h < m && (b[h] <= t || (uint64_t)b[h] - (uint64_t)t <= (uint64_t)tau))
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
        s->bell_d[k] = (int64_t)((uint64_t)tb - (uint64_t)ta); /* a stale pair may lie far apart */
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
 * three section pairs at once, each exactly as coincidence._match_py
 * matches its two channels' times.
 *
 * role[c] = 2p + s puts channel code c on side s (0 for a, 1 for b) of pair
 * p, and each side of a pair holds one channel. A role above 5 skips the
 * tags of code c: they are counted in stats and join no pair, so a table
 * that gives only pair 2 its roles matches that pair alone, its output the
 * same as with every role given. The matches of pairs 0 and 1
 * are the raw bits, 0 and 1, in time order (the earlier tag's time) with
 * the 0 first at equal times, written MSB-first to bits, which must be
 * zeroed and hold n / 16 + 1 bytes. Pair 2's matches go to bell_t (the
 * earlier tag's time) and bell_d (b minus a), which must each hold one value
 * more than the fewer of its a-tags and b-tags (the slot after the last
 * match is written too). No tag time is kept: certification counts its
 * singles on the stream itself. stats receives 12 counts: the matches of
 * each pair, the clusters of each pair holding more than one tag of either
 * side, and the tags of each channel code 0 to 5, skipped roles included
 * (higher codes are skipped). Returns 0, or -1 if the work space cannot be
 * allocated.
 */
int64_t qf_coincide(const int64_t *ts, const uint8_t *ch, int64_t n, int64_t tau,
                    const uint8_t *role, uint8_t *bits, int64_t *bell_t, int64_t *bell_d,
                    int64_t *stats)
{
    coincide_pass s = {.bits = bits, .bell_t = bell_t, .bell_d = bell_d, .stats = stats};
    for (int q = 0; q < 12; q++)
        stats[q] = 0;
    for (int p = 0; p < 3; p++) {
        for (int q = 0; q < 2; q++) {
            reserve(&s.pair[p].side[q], &s.failed);
            if (!s.failed)
                s.pair[p].side[q].v[0] = 0;
        }
        /* an empty cluster closes without a match, and a first time that is
         * too early only holds the bits back longer */
        s.pair[p].first = s.pair[p].last = n ? ts[0] : 0;
    }
    reserve(&s.queue[0], &s.failed);
    reserve(&s.queue[1], &s.failed);
    for (int64_t i = 0; i < n && !s.failed; i++) {
        const int64_t t = ts[i];
        const uint8_t c = ch[i];
        if (c > 5)
            continue;
        stats[6 + c]++;
        if (role[c] > 5)
            continue;
        const int p = role[c] >> 1;
        cluster *cl = &s.pair[p];
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

/* Middle products of at most this many words run in a base case. */
#define MP_BASE 24

/* r[0:2n] = the n entries of the middle product of the (2n - 1)-word a and
 * the n-word b over GF(2)[z], word k of each holding the coefficients of
 * z^(64k) to z^(64k + 63): entry k is the 128-bit sum over j < n of the
 * carry-less products a[k + n - 1 - j] b[j], its low word r[2k] and its
 * high word r[2k + 1]. A base case makes one word multiply per term, here
 * by shift and xor. */
typedef void (*mp_base)(uint64_t *r, const uint64_t *a, const uint64_t *b, int64_t n);

static void mp_portable(uint64_t *r, const uint64_t *a, const uint64_t *b, int64_t n)
{
    for (int64_t k = 0; k < n; k++) {
        uint64_t lo = 0, hi = 0;
        for (int64_t j = 0; j < n; j++) {
            const uint64_t x = a[k + n - 1 - j], y = b[j];
            for (int s = 0; s < 64; s++) {
                const uint64_t mask = -(y >> s & 1);
                lo ^= x << s & mask;
                hi ^= s ? x >> (64 - s) & mask : 0;
            }
        }
        r[2 * k] = lo;
        r[2 * k + 1] = hi;
    }
}

/* The base cases this CPU runs, set once when the library loads: the
 * portable one, pclmul's and AVX-512's. Every middle product runs base, the
 * last of them that this CPU has. */
static mp_base bases[3] = {mp_portable};
static mp_base base = mp_portable;

#if defined(__x86_64__)
/* The base case by pclmulqdq, four entries at a time: the 128-bit loads of
 * a[k + n - 1 - j], a[k + n - j] and of a[k + n + 1 - j], a[k + n + 2 - j]
 * serve entries k to k + 3 with one load of b[j]. */
__attribute__((target("pclmul,sse2")))
static void mp_pclmul(uint64_t *r, const uint64_t *a, const uint64_t *b, int64_t n)
{
    int64_t k = 0;
    for (; k + 3 < n; k += 4) {
        __m128i acc0 = _mm_setzero_si128(), acc1 = _mm_setzero_si128();
        __m128i acc2 = _mm_setzero_si128(), acc3 = _mm_setzero_si128();
        for (int64_t j = 0; j < n; j++) {
            const __m128i bj = _mm_loadl_epi64((const __m128i *)(b + j));
            const __m128i lo = _mm_loadu_si128((const __m128i *)(a + k + n - 1 - j));
            const __m128i hi = _mm_loadu_si128((const __m128i *)(a + k + n + 1 - j));
            acc0 = _mm_xor_si128(acc0, _mm_clmulepi64_si128(lo, bj, 0x00));
            acc1 = _mm_xor_si128(acc1, _mm_clmulepi64_si128(lo, bj, 0x01));
            acc2 = _mm_xor_si128(acc2, _mm_clmulepi64_si128(hi, bj, 0x00));
            acc3 = _mm_xor_si128(acc3, _mm_clmulepi64_si128(hi, bj, 0x01));
        }
        _mm_storeu_si128((__m128i *)(r + 2 * k), acc0);
        _mm_storeu_si128((__m128i *)(r + 2 * k + 2), acc1);
        _mm_storeu_si128((__m128i *)(r + 2 * k + 4), acc2);
        _mm_storeu_si128((__m128i *)(r + 2 * k + 6), acc3);
    }
    for (; k < n; k++) {
        __m128i acc = _mm_setzero_si128();
        for (int64_t j = 0; j < n; j++)
            acc = _mm_xor_si128(acc, _mm_clmulepi64_si128(
                _mm_loadl_epi64((const __m128i *)(a + k + n - 1 - j)),
                _mm_loadl_epi64((const __m128i *)(b + j)), 0x00));
        _mm_storeu_si128((__m128i *)(r + 2 * k), acc);
    }
}

/* The base case by vpclmulqdq on 512-bit registers, eight entries at a
 * time: one load of a[k + n - 1 - j] to a[k + n + 6 - j] serves entries k
 * to k + 7, the low words of its 128-bit lanes entries k, k + 2, k + 4 and
 * k + 6, and the high words the others. */
__attribute__((target("avx512f,vpclmulqdq,pclmul")))
static void mp_vpclmul(uint64_t *r, const uint64_t *a, const uint64_t *b, int64_t n)
{
    int64_t k = 0;
    for (; k + 7 < n; k += 8) {
        __m512i even = _mm512_setzero_si512(), odd = _mm512_setzero_si512();
        for (int64_t j = 0; j < n; j++) {
            const __m512i bj = _mm512_set1_epi64((long long)b[j]);
            const __m512i aj = _mm512_loadu_si512((const void *)(a + k + n - 1 - j));
            even = _mm512_xor_si512(even, _mm512_clmulepi64_epi128(aj, bj, 0x00));
            odd = _mm512_xor_si512(odd, _mm512_clmulepi64_epi128(aj, bj, 0x01));
        }
        _mm512_storeu_si512((void *)(r + 2 * k), _mm512_permutex2var_epi64(
            even, _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11), odd));
        _mm512_storeu_si512((void *)(r + 2 * k + 8), _mm512_permutex2var_epi64(
            even, _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15), odd));
    }
    for (; k < n; k++) {
        __m128i acc = _mm_setzero_si128();
        for (int64_t j = 0; j < n; j++)
            acc = _mm_xor_si128(acc, _mm_clmulepi64_si128(
                _mm_loadl_epi64((const __m128i *)(a + k + n - 1 - j)),
                _mm_loadl_epi64((const __m128i *)(b + j)), 0x00));
        _mm_storeu_si128((__m128i *)(r + 2 * k), acc);
    }
}

__attribute__((constructor)) static void pick_base(void)
{
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("pclmul"))
        return;
    bases[1] = base = mp_pclmul;
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("vpclmulqdq"))
        bases[2] = base = mp_vpclmul;
}
#endif

/* The size, at least n, at which mp computes a middle product of n entries:
 * c 2^k words with c <= MP_BASE and k as small as that allows, so that every
 * split of the recursion is even. A caller puts its b at the top of that
 * many words, with zero words below, and its a at the bottom of 2 size - 1,
 * with zero words above; entries 0 to n - 1 are then its own. */
static int64_t mp_size(int64_t n)
{
    int k = 0;
    while (((n - 1) >> k) + 1 > MP_BASE)
        k++;
    return (((n - 1) >> k) + 1) << k;
}

/* r[0:2n] = the middle product of a and b, as a base case gives it, for n
 * from mp_size, by the transposed Karatsuba split (Hanrot, Quercia and
 * Zimmermann, "The middle product algorithm I", AAECC 14, 2004). With
 * h = n / 2, b = B0 + z^(64h) B1, and A0, A1 and A2 the (2h - 1)-word
 * windows of a from words 0, h and 2h:
 *   alpha = MP(A0 + A1, B1), beta = MP(A1, B0 + B1), gamma = MP(A1 + A2, B0)
 * The low h entries are alpha + beta, the high h are gamma + beta. Each
 * level takes 5h words of w, so 5n words are enough. */
static void mp(uint64_t *r, const uint64_t *a, const uint64_t *b, int64_t n, uint64_t *w,
               mp_base mul)
{
    if (n <= MP_BASE) {
        mul(r, a, b, n);
        return;
    }
    const int64_t h = n / 2;
    const uint64_t *a1 = a + h;
    uint64_t *restrict sa = w, *restrict sb = sa + 2 * h - 1, *restrict t = sb + h;
    for (int64_t i = 0; i < 2 * h - 1; i++)
        sa[i] = a[i] ^ a1[i];
    mp(r, sa, b + h, h, t + 2 * h, mul);                  /* alpha */
    for (int64_t i = 0; i < 2 * h - 1; i++)
        sa[i] = a1[i] ^ a[n + i];
    mp(r + n, sa, b, h, t + 2 * h, mul);                  /* gamma */
    for (int64_t i = 0; i < h; i++)
        sb[i] = b[i] ^ b[h + i];
    mp(t, a1, sb, h, t + 2 * h, mul);                     /* beta */
    for (int64_t i = 0; i < n; i++) {
        r[i] ^= t[i];
        r[n + i] ^= t[i];
    }
}

/* r[0:2n] = the middle product of the (2n - 1)-word a and the n-word b, by
 * mp with base case bases[which]: the portable one (0), pclmul's (1) or
 * AVX-512's (2), so that tests can hold each to one oracle. Returns 0, -1 if
 * the work space cannot be allocated, or -2 if this CPU runs without that
 * base case. */
int64_t qf_middle_product(const uint64_t *a, const uint64_t *b, int64_t n, int64_t which,
                          uint64_t *r)
{
    if (which < 0 || which > 2 || !bases[which])
        return -2;
    const int64_t e = mp_size(n);
    uint64_t *ap = calloc(2 * e - 1 + e + 2 * e + 5 * e, sizeof *ap);
    if (!ap)
        return -1;
    uint64_t *bp = ap + 2 * e - 1, *rp = bp + e, *w = rp + 2 * e;
    memcpy(ap, a, (2 * n - 1) * sizeof *ap);
    memcpy(bp + e - n, b, n * sizeof *bp);
    mp(rp, ap, bp, e, w, bases[which]);
    memcpy(r, rp, 2 * n * sizeof *r);
    free(ap);
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

/* Toeplitz hashing of the n-bit blocks k0 to k0 + n_blocks - 1 of the
 * MSB-first bit string x into as many consecutive m-bit outputs, with the
 * matrix T[i][j] = seed[m - 1 - i + j] of an (n + m - 1)-bit seed. out holds
 * them from its bit (k0 m) mod 8 on, the bit they have in the whole output,
 * so that the ranges of one stream OR together byte by byte; its other bits
 * are zero. seed holds the seed in words, bit b of word k being seed bit
 * 64k + b.
 *
 * A block of nw = ceil(n / 64) words, read as big-endian words from its
 * start, is the polynomial x(z) = sum x[j] z^(64 nw - 1 - j) with its words
 * in reverse order. With s(z) = sum seed[k] z^k, output bit i is then
 * coefficient m - 2 + 64 nw - i of s x: the top bit of the product's word
 * nw - 1, then its words nw to 2 nw - 1. Word K of the product is the low
 * word of the 128-bit sum of the terms s_i x_j with i + j = K, xored with
 * the high word of the sum for K - 1, whose top bit is always zero. So one
 * middle product of nw + 1 entries, of the seed and of the block shifted up
 * one word, gives every word needed: the sums for K = nw - 1 to 2 nw - 1.
 * It runs at mp_size(nw + 1) entries, with more zero words below the block.
 *
 * Returns 0, or -1 if the work space cannot be allocated.
 */
int64_t qf_toeplitz(const uint64_t *seed, const uint8_t *x, int64_t k0, int64_t n_blocks,
                    int64_t n, int64_t m, uint8_t *out)
{
    const int64_t nw = (n + 63) / 64, sw = (n + m + 62) / 64, e = mp_size(nw + 1);
    const int64_t off = k0 * m & 7;
    uint64_t *s = calloc(2 * e - 1 + e + 2 * e + nw + 1 + 5 * e, sizeof *s);
    if (!s)
        return -1;
    uint64_t *xw = s + 2 * e - 1, *r = xw + e, *prod = r + 2 * e, *w = prod + nw + 1;
    memcpy(s, seed, sw * sizeof *s);
    memset(out, 0, (off + n_blocks * m + 7) / 8);
    for (int64_t k = k0; k < k0 + n_blocks; k++) {
        for (int64_t i = 0; i < nw; i++)
            xw[e - 1 - i] = get_bits(x, k * n + 64 * i, k * n + n);
        mp(r, s, xw, e, w, base);
        /* prod[q] is word nw - 1 + q of the product, its bits below the
         * top one left out for q = 0 */
        prod[0] = r[0];
        for (int64_t q = 1; q <= nw; q++)
            prod[q] = r[2 * q] ^ r[2 * q - 1];
        for (int64_t v = 0; 64 * v < m; v++) {
            const int64_t c = m - 1 - 64 * v, bits = m - 64 * v < 64 ? m - 64 * v : 64;
            uint64_t word = prod[c >> 6] >> (c & 63);
            if (c & 63)
                word |= prod[(c >> 6) + 1] << (64 - (c & 63));
            put_bits(out, off + (k - k0) * m + 64 * v, word, bits);
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
