/* refine_kernel.c — compiled inner loops for the mapping and coarsening paths.
 *
 * refine_sweep_incremental: one sweep of RefineTopoLB's "incremental"
 * kernel (below). heavy_edge_matching: the multilevel coarsener's matching
 * scan. topolb_init_* / topolb_cycle_*: TopoLB's placement cycle body (at
 * the end of the file).
 *
 * One refine call runs ONE full sweep of the pairwise-swap refiner with the
 * incremental delta structure: per-task best-swap caches (best_b, best_val,
 * valid) that persist across sweeps, invalidated/folded by the dirty set of
 * each accepted swap ({a, b} ∪ N(a) ∪ N(b) — exactly the rows/columns the
 * cost-table patch mutates).
 *
 * Bit-identity contract: every floating-point expression mirrors the
 * reference kernel's NumPy element order and dtype promotion exactly (see
 * repro/mapping/refine.py, _refine_reference and _apply_swap, and
 * repro/mapping/topolb.py, _run_reference), and the build uses
 * -ffp-contract=off so no fused-multiply-add changes rounding. The
 * equivalence suite pins compiled and reference assignments to be bitwise
 * equal.
 *
 * Compiled on demand by repro.mapping._native via the system C compiler;
 * when no toolchain is available the pure-NumPy paths run instead.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* Reference row evaluation for task `a`: delta against every candidate b,
 * written into buf[0..n), then first-minimum argmin (np.argmin semantics).
 * Term order per element:  ((C[a,pb] + C[b,pa]) - C[a,pa]) - C[b,pb],
 * then += (2.0 * w) * dist[pa, pb'] at neighbor positions, then
 * buf[a] = 0.0. */
static void compute_row(i64 n, i64 p, const double *cost, const double *dist,
                        const i64 *assign, const i64 *indptr,
                        const i64 *indices, const double *weights,
                        double *buf, i64 a, i64 *bb_out, double *bv_out)
{
    const i64 pa = assign[a];
    const double capa = cost[a * p + pa];
    const double *arow = cost + a * p;
    for (i64 b = 0; b < n; b++) {
        const i64 pb = assign[b];
        buf[b] = ((arow[pb] + cost[b * p + pa]) - capa) - cost[b * p + pb];
    }
    const double *drow = dist + pa * p;
    for (i64 k = indptr[a]; k < indptr[a + 1]; k++) {
        const i64 b = indices[k];
        buf[b] += (2.0 * weights[k]) * drow[assign[b]];
    }
    buf[a] = 0.0;
    i64 bb = 0;
    double bv = buf[0];
    for (i64 b = 1; b < n; b++) {
        if (buf[b] < bv) {
            bv = buf[b];
            bb = b;
        }
    }
    *bb_out = bb;
    *bv_out = bv;
}

/* Swap the processors of a and b and patch the cost table, mirroring
 * RefineTopoLB._apply_swap: cost[r, q] += (sign * w_r) * (d[pb,q] - d[pa,q])
 * for every neighbor r of a (sign +1) and of b (sign -1). */
static void apply_swap(i64 p, double *cost, const double *dist, i64 *assign,
                       const i64 *indptr, const i64 *indices,
                       const double *weights, i64 a, i64 b)
{
    const i64 pa = assign[a], pb = assign[b];
    if (a == b || pa == pb)
        return;
    assign[a] = pb;
    assign[b] = pa;
    const double *db = dist + pb * p;
    const double *da = dist + pa * p;
    for (int side = 0; side < 2; side++) {
        const i64 t = side ? b : a;
        const double sign = side ? -1.0 : 1.0;
        for (i64 k = indptr[t]; k < indptr[t + 1]; k++) {
            double *crow = cost + indices[k] * p;
            const double sw = sign * weights[k];
            for (i64 q = 0; q < p; q++)
                crow[q] += sw * (db[q] - da[q]);
        }
    }
}

static int cmp_i64(const void *x, const void *y)
{
    const i64 a = *(const i64 *)x, b = *(const i64 *)y;
    return (a > b) - (a < b);
}

/* Run one sweep over perm[0..n). Caches best_b/best_val/valid persist
 * across calls (the caller owns them, zero-initialised before sweep 1).
 * stats (cumulative): [0] visits, [1] accepted swaps, [2] rows computed
 * from scratch, [3] rows folded. Returns 1 if any swap was accepted. */
i64 refine_sweep_incremental(i64 n, i64 p, double *cost, const double *dist,
                             i64 *assign, const i64 *indptr,
                             const i64 *indices, const double *weights,
                             const i64 *perm, i64 *best_b, double *best_val,
                             unsigned char *valid, i64 *stats)
{
    double *buf = (double *)malloc((size_t)n * sizeof(double));
    i64 *touched = (i64 *)malloc((size_t)(2 * n + 2) * sizeof(i64));
    i64 *pos = (i64 *)calloc((size_t)n, sizeof(i64));
    double *corr = (double *)malloc((size_t)n * sizeof(double));
    unsigned char *cset = (unsigned char *)calloc((size_t)n, 1);
    if (!buf || !touched || !pos || !corr || !cset) {
        free(buf); free(touched); free(pos); free(corr); free(cset);
        return -1;
    }

    i64 swapped = 0;
    for (i64 k = 0; k < n; k++) {
        const i64 a = perm[k];
        if (!valid[a]) {
            compute_row(n, p, cost, dist, assign, indptr, indices, weights,
                        buf, a, &best_b[a], &best_val[a]);
            valid[a] = 1;
            stats[2]++;
        }
        stats[0]++;
        if (!(best_val[a] < -1e-9))
            continue;
        const i64 b = best_b[a];
        stats[1]++;
        swapped = 1;
        apply_swap(p, cost, dist, assign, indptr, indices, weights, a, b);

        /* Dirty set: a, b and their neighbors — sorted unique so the fold
         * scans candidates in ascending task order (argmin tie-break). */
        i64 m = 0;
        touched[m++] = a;
        touched[m++] = b;
        for (i64 t = indptr[a]; t < indptr[a + 1]; t++)
            touched[m++] = indices[t];
        for (i64 t = indptr[b]; t < indptr[b + 1]; t++)
            touched[m++] = indices[t];
        qsort(touched, (size_t)m, sizeof(i64), cmp_i64);
        i64 mu = 0;
        for (i64 j = 0; j < m; j++)
            if (j == 0 || touched[j] != touched[j - 1])
                touched[mu++] = touched[j];
        m = mu;

        for (i64 j = 0; j < m; j++)
            valid[touched[j]] = 0;

        if (m * 4 >= n) {
            /* Dense dirty set: folding costs as much as recomputing, so
             * drop every cache (rows rebuild lazily on their next visit). */
            memset(valid, 0, (size_t)n);
            continue;
        }
        for (i64 j = 0; j < m; j++)
            pos[touched[j]] = j + 1;

        /* Fold the moved columns into every still-valid cache row: only
         * entries at the dirty columns changed, and they are recomputed
         * with the exact reference term order, so the merged (argmin, min)
         * stays bitwise equal to a fresh row. Rows whose cached argmin is
         * itself dirty lost their proof of minimality and recompute on
         * their next visit instead. */
        for (i64 r = 0; r < n; r++) {
            if (!valid[r])
                continue;
            if (pos[best_b[r]]) {
                valid[r] = 0;
                continue;
            }
            const i64 pr = assign[r];
            const double crr = cost[r * p + pr];
            const double *rrow = cost + r * p;
            const double *drow = dist + pr * p;
            for (i64 t = indptr[r]; t < indptr[r + 1]; t++) {
                const i64 j = pos[indices[t]];
                if (j) {
                    corr[j - 1] = (2.0 * weights[t]) * drow[assign[indices[t]]];
                    cset[j - 1] = 1;
                }
            }
            i64 bb = best_b[r];
            double bv = best_val[r];
            int updated = 0;
            for (i64 j = 0; j < m; j++) {
                const i64 d = touched[j];
                const i64 pd = assign[d];
                double v = ((rrow[pd] + cost[d * p + pr]) - crr)
                           - cost[d * p + pd];
                if (cset[j])
                    v += corr[j];
                if (v < bv || (v == bv && d < bb)) {
                    bv = v;
                    bb = d;
                    updated = 1;
                }
            }
            if (updated) {
                best_b[r] = bb;
                best_val[r] = bv;
            }
            for (i64 t = indptr[r]; t < indptr[r + 1]; t++) {
                const i64 j = pos[indices[t]];
                if (j)
                    cset[j - 1] = 0;
            }
            stats[3]++;
        }
        for (i64 j = 0; j < m; j++)
            pos[touched[j]] = 0;
    }

    free(buf);
    free(touched);
    free(pos);
    free(corr);
    free(cset);
    return swapped;
}

/* Heavy-edge matching over a CSR graph, mirroring the Python loop in
 * repro/partition/coarsening.py: visit vertices in perm order; an unmatched
 * vertex v pairs with its first unmatched neighbor of strictly largest
 * weight (the `w > best_w` scan from best_w = -1.0), or with itself when it
 * has none. perm is the rng.permutation(n) Python drew; match[0..n) is
 * overwritten (every entry ends >= 0). */
void heavy_edge_matching(i64 n, const i64 *indptr, const i64 *indices,
                         const double *weights, const i64 *perm, i64 *match)
{
    for (i64 v = 0; v < n; v++)
        match[v] = -1;
    for (i64 k = 0; k < n; k++) {
        const i64 v = perm[k];
        if (match[v] >= 0)
            continue;
        i64 best = v;
        double best_w = -1.0;
        for (i64 t = indptr[v]; t < indptr[v + 1]; t++) {
            const i64 j = indices[t];
            if (match[j] < 0 && j != v && weights[t] > best_w) {
                best = j;
                best_w = weights[t];
            }
        }
        match[v] = best;
        match[best] = v;
    }
}

/* ------------------------------------------------------------------ TopoLB
 *
 * The placement cycle of repro/mapping/topolb.py, _run_reference, one call
 * per cycle. The Python caller owns every array, binds their addresses into
 * one topolb_state before the loop, and after each call refreshes the row
 * sums of the returned dirty rows with the reference's own NumPy/BLAS
 * expression (f_sum[dirty] = fest[dirty] @ avail_f), so no summation order
 * lives here.
 *
 * T is the fest dtype (float or double). Elementwise arithmetic follows
 * NumPy's promotion for the reference's expressions: T (op) T and T (op)
 * Python int stay in T; a float64 edge weight times a T row is computed in
 * double and the in-place add rounds back to T. */

enum { TOPOLB_GAIN = 0, TOPOLB_MAX_COST = 1, TOPOLB_VOLUME = 2 };

/* Layout mirrored by repro.mapping._native.TopoLBState. */
typedef struct {
    i64 n, p, reserve, order, selection, avail_count;
    double huge;              /* penalty for consumed processors, exact in T */
    void *fest;               /* (n, p) T, row-major */
    const void *dist;         /* (p, p) T */
    const void *avg_all;      /* (p) T: second-order baseline */
    void *avg_free;           /* (p) T: third-order baseline, updated */
    void *delta;              /* (p) T work buffer: third-order shift */
    void *unplaced_comm;      /* (n) T */
    void *penalty;            /* (p) T */
    void *avail_f;            /* (p) T: 1 free, 0 consumed/disallowed */
    void *f_sum;              /* (n) T: row sums over free columns (gain) */
    void *f_min;              /* (n) T */
    void *res_vals;           /* (n, reserve) T */
    const double *volumes;    /* (n): static communication volume */
    const i64 *indptr, *indices;
    const double *weights;
    i64 *f_argmin, *res_ids, *res_pos, *assignment, *dirty;
    unsigned char *avail, *unassigned, *mark;
    /* [0] cycles, [1] reserve hits, [2] reserve exhaustions,
     * [3] rows rebuilt, [4] neighbor updates */
    i64 stats[5];
} topolb_state;

#define TOPOLB_KERNEL(T, SFX)                                                  \
/* Cache row t's `reserve` smallest (fest + penalty, id) pairs. Strict `<`   \
 * keeps equal values in ascending id order, as the reference's stable sort  \
 * does; the head becomes the row's (f_min, f_argmin). */                     \
static void topolb_rebuild_row_##SFX(topolb_state *s, i64 t)                  \
{                                                                             \
    const i64 p = s->p, R = s->reserve;                                       \
    const T *row = (const T *)s->fest + t * p;                                \
    const T *pen = (const T *)s->penalty;                                     \
    T *vals = (T *)s->res_vals + t * R;                                       \
    i64 *ids = s->res_ids + t * R;                                            \
    i64 m = 0;                                                                \
    for (i64 q = 0; q < p; q++) {                                             \
        const T v = row[q] + pen[q];                                          \
        if (m == R && !(v < vals[R - 1]))                                     \
            continue;                                                         \
        i64 k = m < R ? m++ : R - 1;                                          \
        while (k > 0 && v < vals[k - 1]) {                                    \
            vals[k] = vals[k - 1];                                            \
            ids[k] = ids[k - 1];                                              \
            k--;                                                              \
        }                                                                     \
        vals[k] = v;                                                          \
        ids[k] = q;                                                           \
    }                                                                         \
    s->res_pos[t] = 0;                                                        \
    ((T *)s->f_min)[t] = vals[0];                                             \
    s->f_argmin[t] = ids[0];                                                  \
}                                                                             \
                                                                              \
/* np.argmax(np.where(unassigned, score, -inf)): the first maximum, or the  \
 * first NaN. Scores are compared in double, which orders T values exactly. */\
static i64 topolb_select_##SFX(const topolb_state *s)                         \
{                                                                             \
    const T *f_sum = (const T *)s->f_sum, *f_min = (const T *)s->f_min;       \
    const T count = (T)s->avail_count;                                        \
    i64 best = 0;                                                             \
    double best_v = 0.0;                                                      \
    for (i64 t = 0; t < s->n; t++) {                                          \
        double v = -INFINITY;                                                 \
        if (s->unassigned[t]) {                                               \
            if (s->selection == TOPOLB_GAIN)                                  \
                v = (T)(f_sum[t] / count) - f_min[t];                         \
            else if (s->selection == TOPOLB_MAX_COST)                         \
                v = f_min[t];                                                 \
            else                                                              \
                v = s->volumes[t];                                            \
        }                                                                     \
        if (v != v)                                                           \
            return t;                                                         \
        if (t == 0 || v > best_v) {                                           \
            best = t;                                                         \
            best_v = v;                                                       \
        }                                                                     \
    }                                                                         \
    return best;                                                              \
}                                                                             \
                                                                              \
/* Build every row's reserve (the reference's rebuild(np.arange(n))). */      \
void topolb_init_##SFX(topolb_state *s)                                       \
{                                                                             \
    for (i64 t = 0; t < s->n; t++)                                            \
        topolb_rebuild_row_##SFX(s, t);                                       \
}                                                                             \
                                                                              \
/* One placement cycle. Returns -1 once the last free processor is taken,    \
 * else the number k of dirty rows, whose sorted ids are left in dirty[0..k) \
 * with their reserves already rebuilt. */                                    \
i64 topolb_cycle_##SFX(topolb_state *s)                                       \
{                                                                             \
    const i64 n = s->n, p = s->p, R = s->reserve;                             \
    T *fest = (T *)s->fest, *f_min = (T *)s->f_min;                           \
    T *f_sum = (T *)s->f_sum, *uc = (T *)s->unplaced_comm;                    \
    const T *res_vals = (const T *)s->res_vals;                               \
    unsigned char *un = s->unassigned, *mark = s->mark;                       \
                                                                              \
    /* --- select the next task and place it on its best free processor */   \
    const i64 tk = topolb_select_##SFX(s);                                    \
    const i64 pk = s->f_argmin[tk];                                           \
    s->assignment[tk] = pk;                                                   \
    un[tk] = 0;                                                               \
    s->avail[pk] = 0;                                                         \
    ((T *)s->avail_f)[pk] = 0;                                                \
    s->avail_count--;                                                         \
    s->stats[0]++;                                                            \
    if (s->avail_count == 0)                                                  \
        return -1;                                                            \
    ((T *)s->penalty)[pk] = (T)s->huge;                                       \
                                                                              \
    /* --- processor pk leaves every row's free-column sum (gain only reads  \
     * f_sum) */                                                              \
    if (s->selection == TOPOLB_GAIN)                                          \
        for (i64 t = 0; t < n; t++)                                           \
            if (un[t])                                                        \
                f_sum[t] -= fest[t * p + pk];                                 \
                                                                              \
    /* --- rows whose argmin was pk walk their reserve to the next free      \
     * candidate; an exhausted reserve marks the row for a rebuild */         \
    for (i64 t = 0; t < n; t++) {                                             \
        if (!un[t] || s->f_argmin[t] != pk)                                   \
            continue;                                                         \
        const i64 *ids = s->res_ids + t * R;                                  \
        i64 pos = s->res_pos[t] + 1;                                          \
        while (pos < R && !s->avail[ids[pos]])                                \
            pos++;                                                            \
        if (pos < R) {                                                        \
            s->res_pos[t] = pos;                                              \
            f_min[t] = res_vals[t * R + pos];                                 \
            s->f_argmin[t] = ids[pos];                                        \
            s->stats[1]++;                                                    \
        } else {                                                              \
            mark[t] = 1;                                                      \
            s->stats[2]++;                                                    \
        }                                                                     \
    }                                                                         \
                                                                              \
    /* --- neighbor rows: the (j, tk) edge cost becomes exact:               \
     * fest[j] += c * dist[pk]          (first order)                        \
     * fest[j] += c * (dist[pk] - avg)  (second/third order) */               \
    const T *drow = (const T *)s->dist + pk * p;                              \
    const T *avg = (const T *)(s->order == 2 ? s->avg_all : s->avg_free);     \
    for (i64 e = s->indptr[tk]; e < s->indptr[tk + 1]; e++) {                 \
        const i64 j = s->indices[e];                                          \
        if (!un[j])                                                           \
            continue;                                                         \
        const double c = s->weights[e];                                       \
        T *row = fest + j * p;                                                \
        if (s->order == 1) {                                                  \
            for (i64 q = 0; q < p; q++)                                       \
                row[q] = (T)((double)row[q] + c * (double)drow[q]);           \
        } else {                                                              \
            for (i64 q = 0; q < p; q++)                                       \
                row[q] = (T)((double)row[q]                                   \
                             + c * (double)(T)(drow[q] - avg[q]));            \
        }                                                                     \
        uc[j] = (T)((double)uc[j] - c);                                       \
        mark[j] = 1;                                                          \
        s->stats[4]++;                                                        \
    }                                                                         \
                                                                              \
    /* --- third order: the free-processor average loses pk, and every      \
     * unplaced row's expected-distance term shifts with it */                \
    if (s->order == 3) {                                                      \
        T *avg_free = (T *)s->avg_free, *delta = (T *)s->delta;               \
        const T count = (T)s->avail_count;                                    \
        const T count1 = (T)(s->avail_count + 1);                             \
        for (i64 q = 0; q < p; q++) {                                         \
            const T next = (avg_free[q] * count1 - drow[q]) / count;          \
            delta[q] = next - avg_free[q];                                    \
            avg_free[q] = next;                                               \
        }                                                                     \
        for (i64 t = 0; t < n; t++) {                                         \
            if (!un[t])                                                       \
                continue;                                                     \
            const T u = uc[t];                                                \
            T *row = fest + t * p;                                            \
            for (i64 q = 0; q < p; q++)                                       \
                row[q] = row[q] + u * delta[q];                               \
            mark[t] = 1;                                                      \
        }                                                                     \
    }                                                                         \
                                                                              \
    /* --- rebuild the dirty rows' reserves, in ascending row order */       \
    i64 k = 0;                                                                \
    for (i64 t = 0; t < n; t++) {                                             \
        if (!mark[t])                                                         \
            continue;                                                         \
        mark[t] = 0;                                                          \
        s->dirty[k++] = t;                                                    \
        topolb_rebuild_row_##SFX(s, t);                                       \
    }                                                                         \
    s->stats[3] += k;                                                         \
    return k;                                                                 \
}

TOPOLB_KERNEL(float, f32)
TOPOLB_KERNEL(double, f64)
