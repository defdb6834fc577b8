/* The rounds of a StepKernel over its C-contiguous (A, P, D) stack:
 * amplitudes, paths, cells; the band product of the Newton residual; and
 * the Brownian increments, from numpy's Philox words through the inverse
 * normal CDF onto the lattice of stochastic.py.
 *
 * Each value is computed by the same IEEE operations in the same order as
 * the ufuncs of scheme._numpy_passes, and the heat product by the very
 * numpy BLAS call the numpy passes make (the cblas_dgemm of np.matmul, or
 * the dpbtrs of ShiftedSolver.apply_markov), so the two agree byte for
 * byte; the other two agree so with the numpy form of scheme.band_product
 * and with numpy's Philox and scipy.special.ndtri.  Build with
 * -ffp-contract=off (no fused multiply-add), without -ffast-math, and link
 * libm; the Philox product needs the 128-bit integers of gcc and clang.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* cblas_dgemm and Fortran dpbtrs with 64-bit integers, as numpy's BLAS exports them. */
typedef void dgemm64(int order, int trans_a, int trans_b, int64_t m, int64_t n, int64_t k,
                     double alpha, const double *a, int64_t lda, const double *b,
                     int64_t ldb, double beta, double *c, int64_t ldc);
typedef void dpbtrs64(const char *uplo, const int64_t *n, const int64_t *kd, const int64_t *nrhs,
                      const double *ab, const int64_t *ldab, double *b, const int64_t *ldb,
                      int64_t *info, size_t uplo_len);

/* A run, as scheme._Run lays it out.  The increment of path p in round j
 * is dw[j * dw_j + p * dw_p], in elements.  The heat product is gemm with
 * the D x D row-major propagator at op or, with gemm NULL, pbtrs with the
 * D x band upper band factor at op.  A heat run has no resolvent. */
struct run {
    double *u, *w;
    const double *amp, *dw, *op, *mass;
    dgemm64 *gemm;
    dpbtrs64 *pbtrs;
    double kappa;
    int64_t amps, paths, cells, band, dw_j, dw_p;
    int resolve;
};

/* Cells clipped at once into a local buffer. */
#define BLOCK 256

/* Vector code for the host's widest unit, picked when the library loads,
 * with the helpers inlined into each clone; IEEE operations lane by lane,
 * so every clone gives the same bytes. */
#if defined(__x86_64__) && defined(__linux__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#define INLINE static inline __attribute__((always_inline))
#endif
#endif
#ifndef CLONES
#define CLONES
#define INLINE static inline
#endif

/* c = ndarray.clip(u, 0.0, 1.0), which keeps -0.0, and NaN with its
 * payload.  A loop of its own: fused with the arithmetic that reads c,
 * gcc vectorizes it only if comparisons may not trap (-fno-trapping-math). */
INLINE void clip01(double *restrict c, const double *restrict u, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++)
        c[i] = u[i] < 0.0 ? 0.0 : (u[i] > 1.0 ? 1.0 : u[i]);
}

/* One pass over the n cells of a tile, c = clip(u) of the cells on entry:
 * with res, the resolvent u = c + (u - c) k; with dw, then the noise
 * w = (((c a) (1 - c)) dW) + u, row p of d cells taking dw[p * dw_p]; res
 * or dw or both.  After the resolvent this c serves for the clip of the
 * new u: the two differ at most in the sign of a zero or the quiet bit of
 * a NaN, which give the same w. */
INLINE void pass(double *restrict u, double *restrict w, int res, double k, double am,
                 const double *dw, ptrdiff_t dw_p, ptrdiff_t n, ptrdiff_t cells)
{
    double c[BLOCK];
    ptrdiff_t row_end = cells;  /* the end of the row of the next cell */
    for (ptrdiff_t lo = 0; lo < n; lo += BLOCK, u += BLOCK, w += BLOCK) {
        const ptrdiff_t m = n - lo < BLOCK ? n - lo : BLOCK;
        clip01(c, u, m);
        if (!dw)
            for (ptrdiff_t i = 0; i < m; i++)
                u[i] = c[i] + (u[i] - c[i]) * k;
        for (ptrdiff_t i = 0; dw && i < m;) {
            const ptrdiff_t end = row_end - lo < m ? row_end - lo : m;
            const double d = *dw;
            for (; i < end; i++) {
                if (res)
                    u[i] = c[i] + (u[i] - c[i]) * k;
                w[i] = ((c[i] * am) * (1.0 - c[i])) * d + u[i];
            }
            if (lo + i == row_end)
                row_end += cells, dw += dw_p;
        }
    }
}

/* Rounds j0..j1-1, each amplitude's tile of p x d cells through all of
 * them in turn, so that it stays in cache: the noise into w, then the heat
 * product into u by the very BLAS call of the numpy passes, then the
 * resolvent, in one pass with the next round's noise.  Tiles are
 * independent, so the order of rounds within each is all that matters. */
CLONES void acfv_rounds(const struct run *r, int j0, int j1)
{
    const int64_t paths = r->paths, cells = r->cells, tile = paths * cells, kd = r->band - 1;
    const double k = r->kappa;
    int64_t info;
    for (ptrdiff_t a = 0; a < r->amps; a++) {
        double *u = r->u + a * tile, *w = r->w + a * tile;
        const double am = r->amp[a];
        for (ptrdiff_t j = j0; j < j1; j++) {
            const double *dw = r->dw + j * r->dw_j;
            if (j == j0 || !r->resolve)
                pass(u, w, 0, k, am, dw, r->dw_p, tile, cells);
            if (r->gemm)  /* u = w op: CblasRowMajor, CblasNoTrans, CblasNoTrans */
                r->gemm(101, 111, 111, paths, cells, cells, 1.0, w, cells, r->op, cells, 0.0,
                        u, cells);
            else {  /* u = w mass, solved in place: ShiftedSolver.apply_markov */
                for (ptrdiff_t i = 0; i < tile; i += cells)
                    for (ptrdiff_t c = 0; c < cells; c++)
                        u[i + c] = w[i + c] * r->mass[c];
                r->pbtrs("U", &cells, &kd, &paths, r->op, &r->band, u, &cells, &info, 1);
            }
            if (r->resolve)
                pass(u, w, 1, k, am, j + 1 < j1 ? dw + r->dw_j : NULL, r->dw_p, tile, cells);
        }
    }
}

/* y = A x for each of the k = rows rows of x, k x d and row-major, where A
 * is the symmetric d x d matrix (d = cells) whose upper band of u =
 * half_width diagonals is the row-major d x (u + 1) band: entry (i, j),
 * i <= j, at band[j (u + 1) + u + i - j].  Each sum starts from 0 and adds
 * the products of the band's slots, zeros too, in ascending column order,
 * as scheme.band_product's numpy form does; the sums of a row advance
 * diagonal by diagonal, independent of each other. */
CLONES void acfv_band_product(double *restrict y, const double *restrict x, const double *band,
                              int rows, int cells, int half_width)
{
    const ptrdiff_t k = rows, d = cells, u = half_width, reach = u < d ? u : d - 1;
    for (ptrdiff_t r = 0; r < k; r++, x += d, y += d) {
        for (ptrdiff_t i = 0; i < d; i++)
            y[i] = 0.0;
        for (ptrdiff_t s = -reach; s <= reach; s++) {  /* entry (i, i + s) at a[i (u + 1)] */
            const double *a = band + (s < 0 ? u + s : s * (u + 1) + u - s);
            for (ptrdiff_t i = s < 0 ? -s : 0; i < (s < 0 ? d : d - s); i++)
                y[i] += a[i * (u + 1)] * x[i + s];
        }
    }
}

/* The inverse of the standard normal CDF: Cephes ndtri, as
 * scipy.special.ndtri computes it, with the same coefficients, the same
 * branches, the same Horner order and the C library's log and sqrt, so the
 * two agree byte for byte. */
static const double NDTRI_P0[5] = {
    -5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
    1.39312609387279679503E1, -1.23916583867381258016E0,
};
static const double NDTRI_Q0[8] = {
    1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
    -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
};
/* z = sqrt(-2 log y) in [2, 8): y in (exp(-32), exp(-2)] */
static const double NDTRI_P1[9] = {
    4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
    4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4,
};
static const double NDTRI_Q1[8] = {
    1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
    1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
};
/* z in [8, 64): y in (exp(-2048), exp(-32)] */
static const double NDTRI_P2[9] = {
    3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
    1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9,
};
static const double NDTRI_Q2[8] = {
    6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
    2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
};
static const double EXP_M2 = 0.13533528323661269189;  /* exp(-2) */

/* c[0] x^n + ... + c[n]; with a leading 1 not stored, x^n + c[0] x^(n-1) + ... */
static double polevl(double x, const double *c, int n)
{
    double ans = *c++;
    do
        ans = ans * x + *c++;
    while (--n);
    return ans;
}

static double p1evl(double x, const double *c, int n)
{
    double ans = x + *c++;
    while (--n)
        ans = ans * x + *c++;
    return ans;
}

/* Cephes ndtri of y0 where ndtri_block leaves it to scalar code: 0, 1, NaN,
 * values outside [0, 1], and the far tails, where x = sqrt(-2 log y) >= 8
 * for y = y0, or 1 - y0 if y0 > 1 - exp(-2). */
static double ndtri_far(double y0)
{
    if (y0 == 0.0)
        return -INFINITY;
    if (y0 == 1.0)
        return INFINITY;
    if (y0 < 0.0 || y0 > 1.0)
        return NAN;
    const int negate = !(y0 > 1.0 - EXP_M2);
    const double y = negate ? y0 : 1.0 - y0;
    const double x = sqrt(-2.0 * log(y));
    const double x0 = x - log(x) / x;
    const double z = 1.0 / x;
    const double x1 = z * polevl(z, NDTRI_P2, 8) / p1evl(z, NDTRI_Q2, 8);
    return negate ? -(x0 - x1) : x0 - x1;
}

/* Values drawn or inverted at once into local buffers. */
#define SAMPLES 512

/* z[i] = ndtri(y[i]), i < n <= SAMPLES.  Cephes' central formula goes
 * over every value, branch free and written out in the Horner order of
 * polevl and p1evl, so that it vectorizes.  Then the tails, the values
 * outside (exp(-2), 1 - exp(-2)]: x = sqrt(-2 log y) and log x one by one,
 * the rest of the formula for x < 8 again as one vector loop, and
 * ndtri_far for the others. */
INLINE void ndtri_block(double *restrict z, const double *restrict y, ptrdiff_t n)
{
    const double *p = NDTRI_P0, *q = NDTRI_Q0;
    for (ptrdiff_t i = 0; i < n; i++) {
        const double v = y[i] - 0.5, v2 = v * v;
        const double num = (((p[0] * v2 + p[1]) * v2 + p[2]) * v2 + p[3]) * v2 + p[4];
        const double den = (((((((v2 + q[0]) * v2 + q[1]) * v2 + q[2]) * v2 + q[3]) * v2
                             + q[4]) * v2 + q[5]) * v2 + q[6]) * v2 + q[7];
        z[i] = (v + v * (v2 * num / den)) * 2.50662827463100050242E0;  /* sqrt(2 pi) */
    }
    ptrdiff_t tail[SAMPLES], tails = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        tail[tails] = i;
        tails += !(y[i] > EXP_M2 && y[i] <= 1.0 - EXP_M2);
    }
    double x[SAMPLES], log_x[SAMPLES], r[SAMPLES];
    for (ptrdiff_t t = 0; t < tails; t++) {
        const double v = y[tail[t]];
        x[t] = sqrt(-2.0 * log(v > 1.0 - EXP_M2 ? 1.0 - v : v));
        log_x[t] = log(x[t]);
    }
    p = NDTRI_P1, q = NDTRI_Q1;
    for (ptrdiff_t t = 0; t < tails; t++) {
        const double w = 1.0 / x[t];
        const double num = (((((((p[0] * w + p[1]) * w + p[2]) * w + p[3]) * w + p[4]) * w
                              + p[5]) * w + p[6]) * w + p[7]) * w + p[8];
        const double den = (((((((w + q[0]) * w + q[1]) * w + q[2]) * w + q[3]) * w + q[4])
                             * w + q[5]) * w + q[6]) * w + q[7];
        r[t] = (x[t] - log_x[t] / x[t]) - w * num / den;
    }
    for (ptrdiff_t t = 0; t < tails; t++) {
        const double v = y[tail[t]];
        z[tail[t]] = !(x[t] < 8.0) ? ndtri_far(v) : v > 1.0 - EXP_M2 ? r[t] : -r[t];
    }
}

/* x[i] = ndtri(x[i]) for i < n, as scipy.special.ndtri(x, out=x). */
CLONES void acfv_ndtri(double *x, ptrdiff_t n)
{
    double y[SAMPLES];
    for (ptrdiff_t lo = 0; lo < n; lo += SAMPLES) {
        const ptrdiff_t m = n - lo < SAMPLES ? n - lo : SAMPLES;
        for (ptrdiff_t i = 0; i < m; i++)
            y[i] = x[lo + i];
        ndtri_block(x + lo, y, m);
    }
}

/* The Philox4x64-10 block of numpy's Philox(key=[k0, k1]) at counter
 * (ctr, 0, 0, 0): Random123's ten rounds, the key bumped between them. */
INLINE void philox(uint64_t out[4], uint64_t ctr, uint64_t k0, uint64_t k1)
{
    uint64_t c0 = ctr, c1 = 0, c2 = 0, c3 = 0;
    for (int round = 0; round < 10; round++) {
        if (round) {
            k0 += 0x9E3779B97F4A7C15u;
            k1 += 0xBB67AE8584CAA73Bu;
        }
        const __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93u * c0;
        const __uint128_t p1 = (__uint128_t)0xCA5A826395121157u * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    out[0] = c0, out[1] = c1, out[2] = c2, out[3] = c3;
}

/* The fine increments of steps first..first+m-1 of the p paths keys[0..p-1]
 * into the row-major p x m out, by the numpy operations of
 * stochastic.increment_chunks in their order.  numpy's Philox starts from
 * counter 0 and raises it before each block of four words, so the word of
 * step s is word s % 4 of the block at counter s / 4 + 1.  Each word w gives
 * the uniform min(((w >> 11) + 1/2) 2^-53, 1 - 2^-53), its ndtri z the
 * increment rint(z sigma / quantum) quantum. */
CLONES void acfv_increments(double *out, const uint64_t *keys, ptrdiff_t p, ptrdiff_t m,
                            uint64_t seed, int64_t first, double sigma, double quantum)
{
    double y[SAMPLES], z[SAMPLES];
    uint64_t word[4];
    for (ptrdiff_t r = 0; r < p; r++) {
        uint64_t ctr = (uint64_t)first / 4 + 1;
        int k = first % 4;
        philox(word, ctr, seed, keys[r]);
        for (ptrdiff_t lo = 0; lo < m; lo += SAMPLES) {
            const ptrdiff_t n = m - lo < SAMPLES ? m - lo : SAMPLES;
            for (ptrdiff_t i = 0; i < n; i++) {
                if (k == 4)
                    philox(word, ++ctr, seed, keys[r]), k = 0;
                const double u = ((double)(word[k++] >> 11) + 0.5) * 0x1p-53;
                y[i] = u < 1.0 - 0x1p-53 ? u : 1.0 - 0x1p-53;
            }
            ndtri_block(z, y, n);
            double *row = out + r * m + lo;
            for (ptrdiff_t i = 0; i < n; i++)
                row[i] = nearbyint(z[i] * sigma / quantum) * quantum;
        }
    }
}
