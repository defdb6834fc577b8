/* The rounds of a StepKernel over its C-contiguous (A, P, D) stack:
 * amplitudes, paths, cells, eight rows at a time in vector lanes, with a
 * coupled run's semismooth Newton iteration and the gap of a coupled run to
 * the splitting run it steps beside itself; the linear algebra they and
 * linalg.ShiftedSolver take, one upper band Cholesky factor of eight lanes
 * with its solve and one dense product; the band product; the Brownian
 * increments, from numpy's Philox words through the inverse normal CDF onto
 * the lattice of stochastic.py; and the coarse increments of a step ladder,
 * as differences of the running path sums.
 *
 * Each value is computed by the same IEEE operations in the same order as
 * the ufuncs of the numpy forms in tests/oracles.py, the tests' byte
 * oracle, so the two agree byte for byte; every sum runs in a fixed order,
 * so the bytes depend on the build flags and libm only, not on the CPU.
 * The sampler agrees so with numpy's Philox and scipy.special.ndtri.  Build
 * with -ffp-contract=off (no fused multiply-add), without -ffast-math, and
 * link libm; the Philox product needs the 128-bit integers of gcc and clang,
 * the lanes their vector extensions.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* A kernel's run, as scheme._Run lays it out, bound once when the kernel is
 * built.  The heat product takes the D x D row-major propagator at op if
 * dense, else the D x (half + 1) upper band factor of M + tau A at op.  No
 * resolvent in a heat run.  A coupled run (shifted not NULL) has the
 * D x (half + 1) upper band of M + tau A at shifted and its Newton
 * constants; the rounds leave the largest residual of the rows that did not
 * converge in residual.  A coupled run may step a splitting run of the same
 * (amps, paths, cells) stack beside itself (beside not NULL), each round
 * first, and then writes each row's gap, the largest |coupled - splitting|
 * over its cells, after round j of a call at gap[a gap_a + p gap_p + j] for
 * amplitude a and path p.  The scratch holds 2 P int64, the order of the
 * rows and the step of each (see order_rows), then the lanes of a group of
 * rows:
 * LANES (D (half + 5) + 1) doubles in a coupled run, the state, the noise
 * and the buffers of the Newton iteration (see newton), else LANES (2 D + 1),
 * the state and the noise. */
struct run {
    double *u;
    const double *amp, *op, *mass, *shifted;
    double *scratch, *gap;
    struct run *beside;
    double kappa, tau, eps, tol, residual;
    int64_t amps, paths, cells, half, iterations, gap_a, gap_p;
    int resolve, dense;
};

/* Eight doubles: the rows of a group, one a lane, as the rounds, the solve,
 * the band product and the dense product take them; IEEE operations lane by
 * lane.  A mask, as a comparison of lanes gives it, has every bit of a lane
 * set where it holds, else none.  No function returns lanes or a mask: a
 * vector wider than the default build's unit changes the ABI. */
typedef double lanes __attribute__((vector_size(64)));
typedef int64_t mask __attribute__((vector_size(64)));
#define LANES 8

/* The hot entries, the rounds and the increments, as AVX-512 code where the
 * host has it, picked at load, else plain x86-64, the helpers inlined into
 * each; IEEE operations lane by lane, so both give the same bytes.  Defined
 * on the command line, CLONES builds one copy instead: -DCLONES= the plain
 * one, as the tests build it to compare the clones' bytes. */
#ifndef CLONES
#if defined(__x86_64__) && defined(__linux__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx512f", "default")))
#endif
#endif
#endif
#ifndef CLONES
#define CLONES
#endif
#define INLINE static inline __attribute__((always_inline))

/* max(a, b), NaN if either is, as np.max takes it. */
INLINE double max_nan(double a, double b)
{
    return a != a || b <= a ? a : b;
}

/* a in the lanes where m holds, else b, bit for bit. */
#define PICK(m, a, b) ((lanes)(((m) & (mask)(a)) | (~(m) & (mask)(b))))

/* ndarray.clip(x, 0.0, 1.0) of the lanes x, which keeps -0.0, and NaN with
 * its payload. */
#define CLIP(x) PICK((x) < 0.0, (lanes){0.0}, PICK((x) > 1.0, (lanes){0.0} + 1.0, (x)))

/* m = max_nan(m, |x|) lane by lane. */
INLINE void max_abs(lanes *m, const lanes *x)
{
    const lanes size = (lanes)((mask)*x & ~(mask)-(lanes){0.0});  /* all bits but the sign */
    *m = PICK((*m != *m) | (size <= *m), *m, size);
}

/* The lanes of a scratch buffer, from its first 64-byte boundary on. */
INLINE lanes *aligned(double *scratch)
{
    return (lanes *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);
}

/* The n <= LANES rows of d cells at x into the lanes buf[0..d-1], row l at
 * x + rows[l] d, or at x + l d if rows is NULL; zeros in the lanes past n. */
INLINE void gather(lanes *restrict buf, const double *restrict x, const ptrdiff_t *rows,
                   ptrdiff_t n, ptrdiff_t d)
{
    for (ptrdiff_t c = 0; c < d; c++) {
        lanes v = {0.0};
        for (ptrdiff_t l = 0; l < n; l++)
            v[l] = x[(rows ? rows[l] : l) * d + c];
        buf[c] = v;
    }
}

/* The first n lanes of buf[0..d-1] into the n rows of d cells at y, as
 * gather takes them. */
INLINE void scatter(double *restrict y, const ptrdiff_t *rows, const lanes *restrict buf,
                    ptrdiff_t n, ptrdiff_t d)
{
    for (ptrdiff_t c = 0; c < d; c++)
        for (ptrdiff_t l = 0; l < n; l++)
            y[(rows ? rows[l] : l) * d + c] = buf[c][l];
}

/* y = A x for the rows of d cells interleaved in the lanes x, A the
 * symmetric d x d matrix whose upper band of u diagonals is the row-major
 * d x (u + 1) band: entry (i, j), i <= j, at band[j (u + 1) + u + i - j].
 * Each sum starts from 0 and adds the products of the band's slots, zeros
 * too, in ascending column order, as its numpy form in tests/oracles.py
 * does; the sums advance diagonal by diagonal, independent of each other. */
INLINE void band_rows(lanes *restrict y, const lanes *restrict x, const double *band,
                      ptrdiff_t d, ptrdiff_t u)
{
    const ptrdiff_t reach = u < d ? u : d - 1;
    for (ptrdiff_t i = 0; i < d; i++)
        y[i] = (lanes){0.0};
    for (ptrdiff_t s = -reach; s <= reach; s++) {  /* entry (i, i + s) at a[i (u + 1)] */
        const double *a = band + (s < 0 ? u + s : s * (u + 1) + u - s);
        for (ptrdiff_t i = s < 0 ? -s : 0; i < (s < 0 ? d : d - s); i++)
            y[i] = y[i] + a[i * (u + 1)] * x[i + s];
    }
}

/* Output columns of the dense product summed at once, in registers. */
#define COLUMNS 16

/* y = x op for the rows of d cells interleaved in the lanes x, op the d x d
 * row-major matrix: y[j] is the product x[0] op[0][j], then plus
 * x[k] op[k][j] for k ascending, COLUMNS columns at a time, then the
 * columns left one by one, which sum in the same order. */
INLINE void product(lanes *restrict y, const lanes *restrict x, const double *restrict op,
                    ptrdiff_t d)
{
    ptrdiff_t j = 0;
    for (; j + COLUMNS <= d; j += COLUMNS) {
        lanes acc[COLUMNS];
#pragma GCC unroll 16
        for (int c = 0; c < COLUMNS; c++)
            acc[c] = x[0] * op[j + c];
        for (ptrdiff_t k = 1; k < d; k++)
#pragma GCC unroll 16
            for (int c = 0; c < COLUMNS; c++)
                acc[c] = acc[c] + x[k] * op[k * d + j + c];
#pragma GCC unroll 16
        for (int c = 0; c < COLUMNS; c++)
            y[j + c] = acc[c];
    }
    for (; j < d; j++) {
        lanes acc = x[0] * op[j];
        for (ptrdiff_t k = 1; k < d; k++)
            acc = acc + x[k] * op[k * d + j];
        y[j] = acc;
    }
}

/* The upper band Cholesky factor U, U^T U = A, of each lane into the
 * interleaved row-major d x (u + 1) bands f, A the symmetric matrix whose
 * upper band is the row-major d x (u + 1) band plus, unless add is NULL,
 * add[i] on the diagonal: entry (i, j), i <= j, at [j (u + 1) + u + i - j]
 * of each, as band_rows takes it.  Column by column, each entry (i, j) from
 * i = j - u (or 0) down to the diagonal is A(i, j) minus the sum from 0 of
 * the products U(k, i) U(k, j), k ascending from j - u (or 0), then
 * divided by U(i, i), or at i = j its square root.  Leaves in info per lane
 * 0, or j + 1 for the first column j whose pivot, the value under the
 * square root, is not positive (or NaN); the lane's later entries are then
 * undefined. */
INLINE void factor(lanes *f, const double *band, const lanes *add, ptrdiff_t d, ptrdiff_t u,
                   mask *info)
{
    *info = (mask){0};
    for (ptrdiff_t j = 0; j < d; j++) {
        const ptrdiff_t lo = j < u ? 0 : j - u;
        const double *a = band + j * u + u;  /* a[i]: entry (i, j) of the band */
        lanes *col = f + j * u + u;  /* col[i]: entry (i, j) */
        for (ptrdiff_t i = lo; i <= j; i++) {
            const lanes *row = f + i * u + u;  /* row[k]: entry (k, i) */
            lanes s = {0.0};
            for (ptrdiff_t k = lo; k < i; k++)
                s = s + row[k] * col[k];
            if (i < j) {
                col[i] = (a[i] - s) / row[i];
                continue;
            }
            s = add ? (a[j] + add[j]) - s : a[j] - s;
            *info |= ~(s > 0.0) & (*info == 0) & (j + 1);
            for (int l = 0; l < LANES; l++)
                col[j][l] = sqrt(s[l]);
        }
    }
}

/* Entry at of the factor f times x, and x over it, lane by lane: with own,
 * each lane's own factor, f its interleaved lanes; else the one band f
 * that every lane shares, its entry a scalar operand, which the vector
 * extension broadcasts in one instruction (gcc 12 builds a literal
 * {e, ..., e} from eight loads). */
#define TIMES(f, at, own, x) \
    ((own) ? ((const lanes *)(f))[at] * (x) : ((const double *)(f))[at] * (x))
#define OVER(x, f, at, own) \
    ((own) ? (x) / ((const lanes *)(f))[at] : (x) / ((const double *)(f))[at])

/* x = A^-1 x in place for the rows of d cells interleaved in the lanes x,
 * A = U^T U with U the factor f, in acfv_band_factor's layout, as TIMES
 * and OVER take it (own a constant in each inlined copy).  The forward
 * solve U^T z = x, then the back solve U y = z, each cell i in turn
 * (ascending, then descending) x_i minus the sum from 0 of the products of
 * U's entries with the cells solved before it, k ascending, divided by
 * U(i, i).  A sum from 0 leaves a row of -0.0 at -0.0. */
INLINE void solve(lanes *x, const void *f, int own, ptrdiff_t d, ptrdiff_t u)
{
    for (ptrdiff_t i = 0; i < d; i++) {
        const ptrdiff_t col = i * u + u;  /* col + k: entry (k, i) of U, row i of U^T */
        lanes s = {0.0};
        for (ptrdiff_t k = i < u ? 0 : i - u; k < i; k++)
            s = s + TIMES(f, col + k, own, x[k]);
        x[i] = OVER(x[i] - s, f, col + i, own);
    }
    for (ptrdiff_t i = d - 1; i >= 0; i--) {
        lanes s = {0.0};
        for (ptrdiff_t k = i + 1; k < d && k <= i + u; k++)  /* entry (i, k) */
            s = s + TIMES(f, k * u + u + i, own, x[k]);
        x[i] = OVER(x[i] - s, f, i * u + u + i, own);
    }
}

/* The factor of factor in place on one row-major d x (u + 1) band f, for
 * linalg.ShiftedSolver: factored in every lane of the scratch of
 * LANES (d (u + 1) + 1) doubles, and the first lane copied back; the slots
 * outside the matrix keep their values.  Returns 0, or j + 1 for the first
 * column j whose pivot is not positive (or NaN). */
int acfv_band_factor(double *f, int d, int u, double *scratch)
{
    lanes *buf = aligned(scratch);
    mask info;
    factor(buf, f, NULL, d, u, &info);
    for (ptrdiff_t j = 0; j < d; j++)
        for (ptrdiff_t i = j < u ? 0 : j - u; i <= j; i++)
            f[j * u + u + i] = buf[j * u + u + i][0];
    return (int)info[0];
}

/* y = A^-1 x for the rows of d cells at x (row r at x + r d) into y, which
 * may be x; A = U^T U with U the factor of acfv_band_factor.  Up to LANES
 * rows at a time, one a lane, interleaved in the scratch of LANES (d + 1)
 * doubles, by solve. */
void acfv_band_solve(double *y, const double *x, const double *f, int rows, int d, int u,
                     double *scratch)
{
    lanes *buf = aligned(scratch);
    for (ptrdiff_t r0 = 0; r0 < rows; r0 += LANES) {
        const ptrdiff_t n = rows - r0 < LANES ? rows - r0 : LANES;
        gather(buf, x + r0 * d, NULL, n, d);
        solve(buf, f, 0, d, u);
        scatter(y + r0 * d, NULL, buf, n, d);
    }
}

/* y = x op for the rows of d cells at x (row r at x + r d), op the d x d
 * row-major matrix, as product takes it: up to LANES rows at a time,
 * interleaved in the scratch of LANES (2 d + 1) doubles. */
void acfv_product(double *y, const double *x, const double *op, int rows, int d,
                  double *scratch)
{
    lanes *in = aligned(scratch), *out = in + d;
    for (ptrdiff_t r0 = 0; r0 < rows; r0 += LANES) {
        const ptrdiff_t n = rows - r0 < LANES ? rows - r0 : LANES;
        gather(in, x + r0 * d, NULL, n, d);
        product(out, in, op, d);
        scatter(y + r0 * d, NULL, out, n, d);
    }
}

/* The semismooth Newton iteration of a coupled run on its n <= LANES rows
 * of d cells in the lanes x, in place, from their noisy rows in the lanes
 * b, which it scales to M w, with the lanes after b as its buffers:
 * (M + tau A) v + tau M psi(v) = M w, psi(v) = (v - clip(v)) / eps.  Each
 * iteration takes the residual r = (A v + (tau M) psi(v)) - M w, A v by
 * band_rows, and closes a lane once every |r_i| <= tol; the lanes still
 * open take the active-set Jacobian, the band of M + tau A with
 * ((tau / eps) M_i) active_i added to its diagonal (active: v_i < 0 or
 * v_i > 1), factor it and solve for x = J^-1 r, and take v = v - x.  A lane
 * fails if its Jacobian did not factor, which a finite one always does (it
 * is positive definite), or if it is still open after the run's
 * iterations, as one with a NaN residual always is.  Each lane makes the
 * IEEE operations of its row iterated alone, and the lanes past n never
 * open.  Returns 1 if a row failed, with *worst the max_nan of it and the
 * last |r| norm of each failed row in lane order, else 0. */
INLINE int newton(const struct run *r, lanes *restrict x, lanes *restrict b, ptrdiff_t n,
                  double *worst)
{
    const ptrdiff_t d = r->cells, u = r->half;
    const double tau = r->tau, eps = r->eps, *mass = r->mass;
    const lanes one = (lanes){0.0} + 1.0;
    lanes *res = b + d, *add = res + d, *jac = add + d;
    lanes norm = (lanes){0.0} + NAN;
    mask open = {0}, failed = {0}, bad;
    for (ptrdiff_t l = 0; l < n; l++)
        open[l] = -1;
    for (ptrdiff_t i = 0; i < d; i++)
        b[i] = b[i] * mass[i];
    for (int64_t it = 0; it < r->iterations; it++) {
        band_rows(res, x, r->shifted, d, u);
        lanes m = {0.0};
        for (ptrdiff_t i = 0; i < d; i++) {
            const lanes c = CLIP(x[i]);
            res[i] = (res[i] + (tau * mass[i]) * ((x[i] - c) / eps)) - b[i];
            max_abs(&m, &res[i]);
        }
        norm = PICK(open, m, norm);
        open &= ~(m <= r->tol);
        if (!memcmp(&open, &(mask){0}, sizeof open))  /* no lane open */
            break;
        for (ptrdiff_t i = 0; i < d; i++) {
            const lanes active = (lanes)(((x[i] < 0.0) | (x[i] > 1.0)) & (mask)one);
            add[i] = ((tau / eps) * mass[i]) * active;
        }
        factor(jac, r->shifted, add, d, u, &bad);
        bad = bad != 0;
        failed |= open & bad, open &= ~bad;
        solve(res, jac, 1, d, u);
        for (ptrdiff_t i = 0; i < d; i++)
            x[i] = PICK(open, x[i] - res[i], x[i]);
    }
    failed |= open;
    int any_failed = 0;
    for (ptrdiff_t l = 0; l < n; l++)
        if (failed[l])
            any_failed = 1, *worst = max_nan(*worst, norm[l]);
    return any_failed;
}

/* Round j of run r on the n rows of a group at amplitude a, held in the
 * lanes x, their increments in the lanes dw: the noise
 * w = (((c a) (1 - c)) dW) + x into the lanes after x, then the heat
 * product into x, the product with the propagator, or the solve of w M
 * with the band factor, then the resolvent x = c + (x - c) kappa, each c a
 * clip of x as it is then, and in a coupled run the Newton iteration from
 * w.  Returns 1 if a row's iteration failed, with *worst as newton leaves
 * it, else 0. */
INLINE int round_lanes(const struct run *r, lanes *restrict x, const lanes *dw, ptrdiff_t a,
                       ptrdiff_t n, double *worst)
{
    const ptrdiff_t d = r->cells;
    const double am = r->amp[a], k = r->kappa;
    lanes *w = x + d;
    for (ptrdiff_t i = 0; i < d; i++) {
        const lanes c = CLIP(x[i]);
        w[i] = ((c * am) * (1.0 - c)) * *dw + x[i];
    }
    if (r->dense)
        product(x, w, r->op, d);
    else {
        for (ptrdiff_t i = 0; i < d; i++)
            x[i] = w[i] * r->mass[i];
        solve(x, r->op, 0, d, r->half);
    }
    for (ptrdiff_t i = 0; r->resolve && i < d; i++) {
        const lanes c = CLIP(x[i]);
        x[i] = c + (x[i] - c) * k;
    }
    return r->shifted ? newton(r, x, w, n, worst) : 0;
}

/* The step of a row of d cells at x in order_rows: 63 less the top six bits
 * of the exponent of its largest |x_i|, NaN cells passed over. */
INLINE int step_of(const double *x, ptrdiff_t d)
{
    double m = 0.0;
    for (ptrdiff_t i = 0; i < d; i++)
        m = fabs(x[i]) > m ? fabs(x[i]) : m;
    uint64_t bits;
    memcpy(&bits, &m, sizeof bits);
    return 63 - (int)(bits >> 57);
}

/* The order of the p rows of d cells at u in which acfv_rounds groups
 * them into lanes: by the binary exponent of their largest |u_i|, in steps
 * of 32 (64 steps in all), from the largest down, each step in row order;
 * each row's step into step[row].
 * A row whose cells all sink toward the subnormal range, as one held below
 * 0 does while each resolvent multiplies it by kappa, makes each vector
 * instruction that holds it in a lane take a microcode assist on x86; so
 * ordered, such rows share their groups with each other, not with rows of
 * ordinary size.  Lanes are independent, so the order changes no value. */
INLINE void order_rows(ptrdiff_t *order, ptrdiff_t *step, const double *u, ptrdiff_t p,
                       ptrdiff_t d)
{
    ptrdiff_t at[65] = {0};  /* at[s + 1]: the rows of step s, then the first row past it */
    for (ptrdiff_t row = 0; row < p; row++)
        at[(step[row] = step_of(u + row * d, d)) + 1]++;
    for (int s = 0; s < 64; s++)
        at[s + 1] += at[s];
    for (ptrdiff_t row = 0; row < p; row++)
        order[at[step[row]]++] = row;
}

/* Rounds j0..j1-1, the paths of each amplitude LANES at a time in the
 * order of order_rows, which the scratch's first p int64 hold: each group
 * of rows gathered into its run's scratch once, taken through all of the
 * rounds by round_lanes, path p taking dw[j dw_j + p dw_p] in round j, and
 * scattered back.  In a pair the splitting run's group first in each
 * round, then the coupled run's, then the gap of each row; the coupled
 * run's rows give the order of both.  Rows are independent, so the order
 * of rounds within each is all that matters.  Returns 0, or 1 if a row's
 * Newton iteration failed, with the largest residual over the failed rows
 * of every group in the earliest round where one failed, merged by max_nan
 * in the order of the groups, left in r->residual; no group takes a round
 * past it, and the states are then undefined. */
CLONES int acfv_rounds(struct run *r, const double *dw, int dw_j, int dw_p, int j0, int j1)
{
    const ptrdiff_t paths = r->paths, d = r->cells;
    struct run *runs[2] = {r->beside, r};  /* one inlined round_lanes */
    ptrdiff_t *order = (ptrdiff_t *)r->scratch, *step = order + paths;
    lanes *x[2] = {r->beside ? aligned(r->beside->scratch + 2 * paths) : NULL,
                   aligned(r->scratch + 2 * paths)};
    int status = 0;
    ptrdiff_t stop = j1;
    for (ptrdiff_t a = 0; a < r->amps; a++) {
        const ptrdiff_t base = a * paths * d;  /* amplitude a's rows */
        order_rows(order, step, r->u + base, paths, d);
        for (ptrdiff_t p = 0; p < paths; p += LANES) {
            const ptrdiff_t n = paths - p < LANES ? paths - p : LANES, *rows = order + p;
            for (int q = !r->beside; q < 2; q++)
                gather(x[q], runs[q]->u + base, rows, n, d);
            for (ptrdiff_t j = j0; j < stop; j++) {
                lanes dW = {0.0};
                for (ptrdiff_t l = 0; l < n; l++)
                    dW[l] = dw[j * dw_j + rows[l] * dw_p];
                double worst = 0.0;
                for (int q = !r->beside; q < 2; q++)
                    if (round_lanes(runs[q], x[q], &dW, a, n, &worst)) {
                        /* the earliest such round yet; one of an earlier group counts too */
                        r->residual = status && j + 1 == stop ? max_nan(r->residual, worst)
                                                              : worst;
                        status = 1, stop = j + 1;
                    }
                if (!r->beside)
                    continue;
                lanes gap = {0.0};
                for (ptrdiff_t i = 0; i < d; i++) {
                    const lanes diff = x[1][i] - x[0][i];
                    max_abs(&gap, &diff);
                }
                for (ptrdiff_t l = 0; l < n; l++)
                    r->gap[a * r->gap_a + rows[l] * r->gap_p + j] = gap[l];
            }
            for (int q = !r->beside; q < 2; q++)
                scatter(runs[q]->u + base, rows, x[q], n, d);
        }
    }
    return status;
}

/* y = A x for each of the k = rows rows of x, k x d and row-major (d =
 * cells), A the symmetric matrix whose upper band of u = half_width
 * diagonals is the row-major d x (u + 1) band, as band_rows takes it: up
 * to LANES rows at a time, interleaved in the scratch of LANES (2 d + 1)
 * doubles. */
void acfv_band_product(double *y, const double *x, const double *band, int rows, int cells,
                       int half_width, double *scratch)
{
    lanes *in = aligned(scratch), *out = in + cells;
    for (ptrdiff_t r0 = 0; r0 < rows; r0 += LANES) {
        const ptrdiff_t n = rows - r0 < LANES ? rows - r0 : LANES;
        gather(in, x + r0 * cells, NULL, n, cells);
        band_rows(out, in, band, cells, half_width);
        scatter(y + r0 * cells, NULL, out, n, cells);
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

/* w P(w) / Q(w), the tail formula of ndtri for w = 1 / x with (P, Q) =
 * (NDTRI_P1, NDTRI_Q1) or (NDTRI_P2, NDTRI_Q2): Cephes' polevl(w, P, 8) and
 * p1evl(w, Q, 8), Q's leading 1 not stored, written out in their Horner
 * order. */
INLINE double tail_term(double w, const double *p, const double *q)
{
    const double num = (((((((p[0] * w + p[1]) * w + p[2]) * w + p[3]) * w + p[4]) * w
                          + p[5]) * w + p[6]) * w + p[7]) * w + p[8];
    const double den = (((((((w + q[0]) * w + q[1]) * w + q[2]) * w + q[3]) * w + q[4])
                         * w + q[5]) * w + q[6]) * w + q[7];
    return w * num / den;
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
    const double x1 = tail_term(1.0 / x, NDTRI_P2, NDTRI_Q2);
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
    for (ptrdiff_t t = 0; t < tails; t++)
        r[t] = (x[t] - log_x[t] / x[t]) - tail_term(1.0 / x[t], NDTRI_P1, NDTRI_Q1);
    for (ptrdiff_t t = 0; t < tails; t++) {
        const double v = y[tail[t]];
        z[tail[t]] = !(x[t] < 8.0) ? ndtri_far(v) : v > 1.0 - EXP_M2 ? r[t] : -r[t];
    }
}

/* x[i] = ndtri(x[i]) for i < n, as scipy.special.ndtri(x, out=x). */
void acfv_ndtri(double *x, ptrdiff_t n)
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
 * into the row-major p x m out, by the numpy operations of the sampler's
 * form in tests/oracles.py in their order.  numpy's Philox starts from
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

/* The coarse increments of one chunk of the path sums: the p rows of the
 * row-major p x m chunk of fine increments, as stochastic.coarse_chunks
 * takes them.  Row r's running sum S starts from carry[r], the sum before
 * the chunk, and is left there after it.  Step count i of the counts takes
 * ratio[i] > 1 fine steps a step; its steps end at the local fine indices
 * first[i], first[i] + ratio[i], ... <= m, whose count k is out[i]'s row
 * length, and each of the p x k increments out[i][r k + j] is S at its end
 * minus last[i p + r], S at the step's start, which then becomes S at its
 * end.  The sums S_j = S_(j-1) + x_j and the differences are numpy's cumsum
 * and diff in their order; S is summed SAMPLES steps at a time into a local
 * buffer, so a chunk may have any length. */
void acfv_ladder(double *const *out, const double *chunk, ptrdiff_t p, ptrdiff_t m,
                 double *carry, double *last, const int64_t *ratio, const int64_t *first,
                 ptrdiff_t counts)
{
    double s[SAMPLES + 1];
    for (ptrdiff_t r = 0; r < p; r++) {
        const double *x = chunk + r * m;
        double sum = carry[r];
        for (ptrdiff_t lo = 0; lo < m; lo += SAMPLES) {
            const ptrdiff_t n = m - lo < SAMPLES ? m - lo : SAMPLES;
            s[0] = sum;  /* s[j]: S after lo + j fine steps */
            for (ptrdiff_t j = 0; j < n; j++)
                s[j + 1] = s[j] + x[lo + j];
            sum = s[n];
            for (ptrdiff_t i = 0; i < counts; i++) {
                const int64_t q = ratio[i], k = m < first[i] ? 0 : (m - first[i]) / q + 1;
                double *prev = last + i * p + r;
                /* the first step of count i that ends after lo */
                int64_t j = lo < first[i] ? 0 : (lo - first[i]) / q + 1;
                for (int64_t end = first[i] + j * q; end <= lo + n; end += q, j++) {
                    out[i][r * k + j] = s[end - lo] - *prev;
                    *prev = s[end - lo];
                }
            }
        }
        carry[r] = sum;
    }
}
