/* The elementwise passes of a StepKernel round, over a run of groups of a
 * C-contiguous (G, A, P, D) stack: step sizes, amplitudes, paths, cells.
 *
 * Each value is computed by the same IEEE operations in the same order as
 * the ufuncs of scheme._numpy_passes, so the two agree byte for byte.
 * Build with -ffp-contract=off (no fused multiply-add) and without
 * -ffast-math.
 */
#include <stddef.h>

/* A run of groups, as scheme._Run lays it out.  The increment of (g, p)
 * in round j is dw[j * dw_j + g * dw_g + p * dw_p], in elements. */
struct run {
    double *u, *c, *w;
    const double *amp, *kappa, *dw;
    ptrdiff_t groups, amps, paths, cells, dw_j, dw_g, dw_p;
};

/* c = ndarray.clip(u, 0.0, 1.0), which keeps -0.0, and NaN with its
 * payload.  A loop of its own: fused with the arithmetic that reads c,
 * gcc vectorizes it only if comparisons may not trap (-fno-trapping-math). */
static void clip01(double *restrict c, const double *restrict u, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++)
        c[i] = u[i] < 0.0 ? 0.0 : (u[i] > 1.0 ? 1.0 : u[i]);
}

/* w = (((c a) (1 - c)) dW) + u, with c = clip(u) first unless carried
 * (c already holds clip(u)). */
void acfv_noise(const struct run *r, int j, int carried)
{
    const ptrdiff_t cells = r->cells;
    if (!carried)
        clip01(r->c, r->u, r->groups * r->amps * r->paths * cells);
    for (ptrdiff_t g = 0; g < r->groups; g++) {
        const double *dw = r->dw + j * r->dw_j + g * r->dw_g;
        for (ptrdiff_t a = 0; a < r->amps; a++) {
            const double am = r->amp[a];
            ptrdiff_t at = (g * r->amps + a) * r->paths * cells;
            for (ptrdiff_t p = 0; p < r->paths; p++, at += cells) {
                const double d = dw[p * r->dw_p];
                const double *restrict u = r->u + at, *restrict c = r->c + at;
                double *restrict w = r->w + at;
                for (ptrdiff_t i = 0; i < cells; i++)
                    w[i] = ((c[i] * am) * (1.0 - c[i])) * d + u[i];
            }
        }
    }
}

/* c = clip(u), then u = c + (u - c) kappa[g]. */
void acfv_resolvent(const struct run *r)
{
    const ptrdiff_t n = r->amps * r->paths * r->cells;
    clip01(r->c, r->u, r->groups * n);
    for (ptrdiff_t g = 0; g < r->groups; g++) {
        const double k = r->kappa[g];
        double *restrict u = r->u + g * n;
        const double *restrict c = r->c + g * n;
        for (ptrdiff_t i = 0; i < n; i++)
            u[i] = c[i] + (u[i] - c[i]) * k;
    }
}
