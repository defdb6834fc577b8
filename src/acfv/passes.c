/* The rounds of a StepKernel over its C-contiguous (A, P, D) stack:
 * amplitudes, paths, cells.
 *
 * Each value is computed by the same IEEE operations in the same order as
 * the ufuncs of scheme._numpy_passes, and the heat product by the very
 * cblas_dgemm call np.matmul makes, so the two agree byte for byte.  Build
 * with -ffp-contract=off (no fused multiply-add) and without -ffast-math.
 */
#include <stddef.h>
#include <stdint.h>

/* The stages of a round, as scheme.NOISE, PRODUCT and RESOLVENT. */
enum { NOISE = 1, PRODUCT = 2, RESOLVENT = 4 };

/* cblas_dgemm with 64-bit integers, as numpy's BLAS exports it. */
typedef void dgemm64(int order, int trans_a, int trans_b, int64_t m, int64_t n, int64_t k,
                     double alpha, const double *a, int64_t lda, const double *b,
                     int64_t ldb, double beta, double *c, int64_t ldc);

/* A run, as scheme._Run lays it out.  The increment of path p in round j
 * is dw[j * dw_j + p * dw_p], in elements; the propagator is the D x D
 * row-major matrix at markov. */
struct run {
    double *u, *w;
    const double *amp, *dw, *markov;
    dgemm64 *gemm;
    double kappa;
    ptrdiff_t amps, paths, cells, dw_j, dw_p;
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

/* Rounds j0..j1-1 through the stages named, each amplitude's tile of
 * p x d cells through all of them in turn, so that it stays in cache: the
 * noise into w, then u = w markov as np.matmul computes it, then the
 * resolvent, in one pass with the next round's noise.  Tiles are
 * independent, so the order of rounds within each is all that matters. */
CLONES void acfv_rounds(const struct run *r, int stages, int j0, int j1)
{
    const ptrdiff_t paths = r->paths, cells = r->cells, tile = paths * cells;
    const double k = r->kappa;
    for (ptrdiff_t a = 0; a < r->amps; a++) {
        double *u = r->u + a * tile, *w = r->w + a * tile;
        const double am = r->amp[a];
        for (ptrdiff_t j = j0; j < j1; j++) {
            const double *dw = r->dw + j * r->dw_j;
            if ((stages & NOISE) && (j == j0 || !(stages & RESOLVENT)))
                pass(u, w, 0, k, am, dw, r->dw_p, tile, cells);
            if (stages & PRODUCT)  /* CblasRowMajor, CblasNoTrans, CblasNoTrans */
                r->gemm(101, 111, 111, paths, cells, cells, 1.0, w, cells, r->markov, cells,
                        0.0, u, cells);
            if (stages & RESOLVENT)
                pass(u, w, 1, k, am, (stages & NOISE) && j + 1 < j1 ? dw + r->dw_j : NULL,
                     r->dw_p, tile, cells);
        }
    }
}
