/* Dtype-templated max-log-MAP SISO kernel body.
 *
 * Included twice by sisokernel.c with REAL / KERNEL_NAME defined to float /
 * double variants.  The algorithm mirrors the numpy reference backend
 * (repro/phy/turbo/backends/numpy_backend.py): plane-major flat trellis
 * tables, step-major (k, batch) layout with the batch innermost, per-step
 * max normalisation of the state metrics.
 *
 * Each recursion step is one loop over the batch, one packet per lane, whose
 * body handles all SISO_STATES states: the state count is a compile-time
 * constant, so the per-state work unrolls into straight-line code whose
 * per-lane metrics stay in registers, and gcc -O3 vectorises the lane loop.
 * (The tables are read through per-step pointer arrays, and `GCC ivdep`
 * states what the layout guarantees: a step reads one plane and writes
 * another, so no lane depends on another.)  SISO_CLONES (sisokernel.c)
 * additionally builds an AVX2 clone of each kernel on x86-64.
 *
 * Every add and multiply takes the numpy kernel's operands in the numpy
 * kernel's order, and every max over states runs in the numpy kernel's
 * state order (ties between +0 and -0 keep the earlier state, as
 * np.maximum.reduce does).  Built with -ffp-contract=off (no fused
 * multiply-add), the output is bit-identical to the numpy backend's at the
 * same dtype, whatever the vector width: a lane performs the same IEEE
 * operations as the scalar remainder loop.
 */

#ifndef SISO_NEG_INF
/* Log-domain "impossible state" metric; matches backends.base.NEG_INF. */
#define SISO_NEG_INF -1e30
/* Trellis states the kernel is compiled for: the 8-state UMTS constituent
 * code (the entry point rejects any other trellis). */
#define SISO_STATES 8
#endif

SISO_CLONES static int KERNEL_NAME(
    const REAL *restrict sys_t,   /* (k, w) step-major systematic LLRs */
    const REAL *restrict par_t,   /* (k, w) step-major parity LLRs */
    const REAL *restrict ap_t,    /* (k, w) step-major a-priori LLRs */
    REAL *restrict app_t,         /* (k, w) step-major APP output */
    const int32_t *restrict prev_flat,    /* (2S) predecessor state per fwd row */
    const REAL *restrict in_sign_fwd,     /* (2S) input sign per fwd row */
    const REAL *restrict par_sign_fwd,    /* (2S) parity sign per fwd row */
    const int32_t *restrict next_flat,    /* (2S) successor state per bwd row */
    const REAL *restrict par_sign_bwd,    /* (2S) parity sign per bwd row */
    Py_ssize_t k,
    Py_ssize_t w,                 /* batch width: packets per step */
    int terminated_start)
{
    enum { S = SISO_STATES };
    if (w <= 0 || k <= 0) {
        return 0;
    }

    /* One malloc per call: alphas (k+1, S, w) and two beta planes (S, w),
     * the current one and the one being written. */
    const size_t plane_len = (size_t)S * (size_t)w;
    const size_t alphas_len = (size_t)(k + 1) * plane_len;
    REAL *scratch = (REAL *)malloc((alphas_len + 2 * plane_len) * sizeof(REAL));
    if (scratch == NULL) {
        return -1;
    }
    REAL *alphas = scratch;
    REAL *beta_cur = alphas + alphas_len;
    REAL *beta_next_step = beta_cur + plane_len;

    /* Flat forward row j * S + s reads predecessor plane prev_flat[.];
     * backward row u * S + s reads successor plane next_flat[.]. */
    Py_ssize_t prev_off[2 * S], next_off[2 * S];
    for (int r = 0; r < 2 * S; r++) {
        prev_off[r] = (Py_ssize_t)prev_flat[r] * w;
        next_off[r] = (Py_ssize_t)next_flat[r] * w;
    }

    /* ---------------- forward recursion ---------------- */
    for (int s = 0; s < S; s++) {
        const REAL fill =
            (terminated_start && s != 0) ? (REAL)SISO_NEG_INF : (REAL)0.0;
        for (Py_ssize_t b = 0; b < w; b++) {
            alphas[(Py_ssize_t)s * w + b] = fill;
        }
    }
    for (Py_ssize_t t = 0; t < k; t++) {
        const REAL *restrict sys_row = sys_t + t * w;
        const REAL *restrict par_row = par_t + t * w;
        const REAL *restrict ap_row = ap_t + t * w;
        const REAL *alpha = alphas + (size_t)t * plane_len;
        REAL *nxt = alphas + (size_t)(t + 1) * plane_len;
        const REAL *cand[2 * S];
        for (int r = 0; r < 2 * S; r++) {
            cand[r] = alpha + prev_off[r];
        }
#pragma GCC ivdep
        for (Py_ssize_t b = 0; b < w; b++) {
            const REAL c = (REAL)0.5 * (sys_row[b] + ap_row[b]);
            const REAL hp = (REAL)0.5 * par_row[b];
            /* The two predecessor candidates of target state s are rows s
             * and S + s of the flat forward layout. */
            REAL m[S];
            for (int s = 0; s < S; s++) {
                const REAL m0 =
                    cand[s][b] + (c * in_sign_fwd[s] + hp * par_sign_fwd[s]);
                const REAL m1 = cand[S + s][b] +
                                (c * in_sign_fwd[S + s] + hp * par_sign_fwd[S + s]);
                m[s] = m0 > m1 ? m0 : m1;
            }
            /* Per-step normalisation by the per-column state maximum. */
            REAL mx = m[0];
            for (int s = 1; s < S; s++) {
                mx = m[s] > mx ? m[s] : mx;
            }
            for (int s = 0; s < S; s++) {
                nxt[(Py_ssize_t)s * w + b] = m[s] - mx;
            }
        }
    }

    /* ------------- backward recursion + APP output ------------- */
    for (size_t i = 0; i < plane_len; i++) {
        beta_cur[i] = (REAL)0.0;
    }
    for (Py_ssize_t t = k - 1; t >= 0; t--) {
        const REAL *restrict sys_row = sys_t + t * w;
        const REAL *restrict par_row = par_t + t * w;
        const REAL *restrict ap_row = ap_t + t * w;
        REAL *restrict app_row = app_t + t * w;
        const REAL *alpha = alphas + (size_t)t * plane_len;
        const REAL *succ[2 * S], *alpha_row[S];
        REAL *beta_row[S];
        for (int r = 0; r < 2 * S; r++) {
            succ[r] = beta_cur + next_off[r];
        }
        for (int s = 0; s < S; s++) {
            alpha_row[s] = alpha + (Py_ssize_t)s * w;
            beta_row[s] = beta_next_step + (Py_ssize_t)s * w;
        }
#pragma GCC ivdep
        for (Py_ssize_t b = 0; b < w; b++) {
            const REAL c = (REAL)0.5 * (sys_row[b] + ap_row[b]);
            const REAL hp = (REAL)0.5 * par_row[b];
            /* gb0/gb1[s]: branch + beta_next of the branch leaving s with
             * input 0/1; best0/best1: the APP maxima over those branches.
             * (alpha + branch) + beta_next is the numpy kernel's operation
             * order, which keeps the APPs bit-exact. */
            REAL gb0[S], gb1[S];
            REAL best0 = (REAL)SISO_NEG_INF;
            REAL best1 = (REAL)SISO_NEG_INF;
            for (int s = 0; s < S; s++) {
                const REAL branch = c * (REAL)1.0 + hp * par_sign_bwd[s];
                const REAL beta_next = succ[s][b];
                const REAL metric = (alpha_row[s][b] + branch) + beta_next;
                gb0[s] = branch + beta_next;
                best0 = metric > best0 ? metric : best0;
            }
            for (int s = 0; s < S; s++) {
                const REAL branch = c * (REAL)-1.0 + hp * par_sign_bwd[S + s];
                const REAL beta_next = succ[S + s][b];
                const REAL metric = (alpha_row[s][b] + branch) + beta_next;
                gb1[s] = branch + beta_next;
                best1 = metric > best1 ? metric : best1;
            }
            app_row[b] = best0 - best1;
            /* beta update: max over inputs of (branch + beta_next),
             * normalised. */
            REAL nb[S];
            for (int s = 0; s < S; s++) {
                nb[s] = gb0[s] > gb1[s] ? gb0[s] : gb1[s];
            }
            REAL mx = nb[0];
            for (int s = 1; s < S; s++) {
                mx = nb[s] > mx ? nb[s] : mx;
            }
            for (int s = 0; s < S; s++) {
                beta_row[s][b] = nb[s] - mx;
            }
        }
        REAL *swap = beta_cur;
        beta_cur = beta_next_step;
        beta_next_step = swap;
    }

    free(scratch);
    return 0;
}

#undef KERNEL_NAME
#undef REAL
