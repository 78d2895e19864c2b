"""Optional C acceleration for the routing hot path.

The survey's §5.3 point is that NDC, not wall-clock, is the
hardware-independent cost of a search — which licenses making the
wall-clock side as fast as the machine allows without touching the
algorithm.  This module compiles a small C library implementing

* ``sq_dists_to_rows``  — the expanded-form distance kernel,
* ``best_first``        — Algorithm 1 for one query.  One C entry point
  serves every serial caller: exact or ADC scoring (uint8 PQ codes
  through a per-query table), optional NDC/hop caps, and — for the
  construction path — a record of every evaluated ``(vertex,
  distance)`` pair (the *visited set* C2 candidate acquisition pools)
  over either the frozen CSR layout or a padded adjacency matrix that
  is still being mutated (Vamana's evolving graph),
* ``best_first_batch_mt`` — the GIL-free scaling path: a pthread worker
  pool answers a whole batch (exact or ADC) in one ctypes call (the
  GIL is released exactly once), each thread owning its own
  epoch-visited array and heap scratch allocated in C, with every
  query writing to a fixed output slot so results are bit-identical to
  the serial kernel for any thread count, and
* ``select_rng``        — the RNG-heuristic selection scan over a
  NumPy-computed cross-distance matrix,

with bookkeeping (visited epochs, candidate/result heaps, tie-breaking
on ``(distance, id)``) that matches the pure-Python frontier exactly, so
NDC, hop counts, visited counts and returned ids are identical whether
or not the native path is active.  ``select_rng`` deliberately consumes
the same float32 distance matrix NumPy computed (rather than
recomputing distances in C) and replicates the comparison's IEEE
semantics, so its accept/reject decisions are provably identical to the
Python scan's.

Compilation happens once per interpreter on first import: the source is
written next to this file and built with the system C compiler into
``_native_build/`` (git-ignored, keyed by a source hash).  Anything
going wrong — no compiler, read-only package dir, loading failure —
degrades to ``LIB = None`` with a one-time ``RuntimeWarning`` (the
reason is kept in ``LOAD_ERROR``) and the NumPy implementations take
over; setting ``REPRO_NO_NATIVE`` opts out silently.  No third-party
packages are involved.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile

import numpy as np

__all__ = [
    "LIB",
    "sq_dists_to_rows",
    "best_first",
    "best_first_batch_mt",
    "best_first_batch_adc_mt",
    "best_first_build",
    "select_rng_scan",
]

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <pthread.h>
#include <time.h>

/* Coarse wall-clock reads for deadline budgets and per-thread busy
   accounting.  CLOCK_MONOTONIC, read at most once every
   DEADLINE_CHECK_GRAIN expansions, so the deadline branch costs a
   predictable O(hops / grain) syscalls and nothing on the unbudgeted
   path (deadline <= 0 short-circuits before the modulo). */
static double mono_now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

#define DEADLINE_CHECK_GRAIN 16

/* Deterministic unrolled dot product: four partial sums combined as
   (s0+s1)+(s2+s3).  Every entry point below uses this same routine, so
   every distance the library ever reports is computed identically. */
static double dot_row(const float *x, const double *q, int64_t d) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t j = 0;
    for (; j + 4 <= d; j += 4) {
        s0 += (double)x[j] * q[j];
        s1 += (double)x[j + 1] * q[j + 1];
        s2 += (double)x[j + 2] * q[j + 2];
        s3 += (double)x[j + 3] * q[j + 3];
    }
    double s = (s0 + s1) + (s2 + s3);
    for (; j < d; j++) s += (double)x[j] * q[j];
    return s;
}

static double sq_dist(const float *row, const double *q, int64_t d,
                      double qsq, double norm) {
    double sq = (qsq - 2.0 * dot_row(row, q, d)) + norm;
    return sq < 0.0 ? 0.0 : sq;
}

/* ADC surrogate distance: gather one float32 LUT entry per subspace
   code and accumulate into a float64 total in subspace order — the
   exact operation the NumPy fallback performs (float64 zeros += float32
   gathered row, m ascending), so both scorers are bit-identical. */
static double adc_dist(const unsigned char *code, const float *lut,
                       int64_t pqm, int64_t pqk) {
    double acc = 0.0;
    for (int64_t m = 0; m < pqm; m++)
        acc += (double)lut[m * pqk + (int64_t)code[m]];
    return acc;
}

void sq_dists_to_rows(const float *rows, int64_t m, int64_t d,
                      const double *q, double qsq,
                      const double *norms, double *out) {
    for (int64_t i = 0; i < m; i++)
        out[i] = sq_dist(rows + i * d, q, d, qsq, norms[i]);
}

/* -- heaps ---------------------------------------------------------- */
/* Candidates: min-heap ordered by (dist asc, id asc) — matches Python
   heapq over (dist, id) tuples.  Results: capped heap whose root is the
   eviction victim under heapq's ordering of (-dist, id) tuples, i.e.
   the entry with the largest dist and, among ties, the smallest id. */

static int cand_less(double d1, int32_t i1, double d2, int32_t i2) {
    return d1 < d2 || (d1 == d2 && i1 < i2);
}

static void cand_push(double *hd, int32_t *hi, int64_t *len,
                      double d, int32_t id) {
    int64_t k = (*len)++;
    while (k > 0) {
        int64_t parent = (k - 1) / 2;
        if (!cand_less(d, id, hd[parent], hi[parent])) break;
        hd[k] = hd[parent]; hi[k] = hi[parent];
        k = parent;
    }
    hd[k] = d; hi[k] = id;
}

static void cand_pop(double *hd, int32_t *hi, int64_t *len,
                     double *d, int32_t *id) {
    *d = hd[0]; *id = hi[0];
    int64_t n = --(*len);
    if (n == 0) return;
    double ld = hd[n]; int32_t li = hi[n];
    int64_t k = 0;
    for (;;) {
        int64_t child = 2 * k + 1;
        if (child >= n) break;
        if (child + 1 < n &&
            cand_less(hd[child + 1], hi[child + 1], hd[child], hi[child]))
            child++;
        if (!cand_less(hd[child], hi[child], ld, li)) break;
        hd[k] = hd[child]; hi[k] = hi[child];
        k = child;
    }
    hd[k] = ld; hi[k] = li;
}

static int res_evict_first(double d1, int32_t i1, double d2, int32_t i2) {
    /* "more evictable": larger dist, ties broken toward smaller id */
    return d1 > d2 || (d1 == d2 && i1 < i2);
}

static void res_sift_down(double *hd, int32_t *hi, int64_t len, int64_t k,
                          double d, int32_t id) {
    for (;;) {
        int64_t child = 2 * k + 1;
        if (child >= len) break;
        if (child + 1 < len &&
            res_evict_first(hd[child + 1], hi[child + 1], hd[child], hi[child]))
            child++;
        if (!res_evict_first(hd[child], hi[child], d, id)) break;
        hd[k] = hd[child]; hi[k] = hi[child];
        k = child;
    }
    hd[k] = d; hi[k] = id;
}

static void res_push(double *hd, int32_t *hi, int64_t *len,
                     double d, int32_t id) {
    int64_t k = (*len)++;
    while (k > 0) {
        int64_t parent = (k - 1) / 2;
        if (!res_evict_first(d, id, hd[parent], hi[parent])) break;
        hd[k] = hd[parent]; hi[k] = hi[parent];
        k = parent;
    }
    hd[k] = d; hi[k] = id;
}

/* -- best-first search (Algorithm 1 / Definition 4.7) ---------------
   max_ndc / max_hops implement the QueryBudget caps: a negative value
   means unlimited, in which case every budget branch below is dead and
   the loop is byte-for-byte the unbudgeted Algorithm 1.  ``deadline``
   is an absolute CLOCK_MONOTONIC second count (<= 0 means none),
   checked coarsely — once every DEADLINE_CHECK_GRAIN expansions — so
   wall-clock SLO budgets can ride the kernel instead of falling back
   to the Python pool.  When a cap fires the search stops where it
   stands and the current result heap is returned as a degraded
   best-k; stats[3] records which cap fired (0 none, 1 ndc, 2 hops,
   3 deadline) so Python can attach a BudgetReport. */

/* The one search core, exported as the serial entry point and run by
   every worker of the MT pool.  ``counts`` selects the adjacency layout:
   NULL walks the frozen CSR arrays (indptr[u]..indptr[u+1]); non-NULL
   walks a padded matrix flattened into ``indices`` where row u starts
   at indptr[u] and holds counts[u] live entries — that is how the
   construction path searches a graph that is still being mutated
   without re-freezing it per point.  ``vis_ids``/``vis_sq`` (NULL to
   skip) record every evaluated (vertex, squared distance) pair in
   evaluation order — the visited set that C2 candidate acquisition
   pools; the order is irrelevant because Python re-sorts by
   (distance, id), exactly like the pure-Python frontier's finish().
   ``lut`` (NULL for exact search) switches scoring to the compressed
   ADC mode: vertices are scored from their uint8 PQ codes via the
   per-query float32 table and ``data``/``q``/``norms`` may be NULL —
   the float32 tier is never dereferenced.  Everything else (heaps,
   epochs, budget caps, tie-breaking) is shared, so the compressed walk
   inherits the exact walk's determinism guarantees (stats[0] then
   counts ADC lookups, not true distance computations). */
int64_t best_first(
    const float *data, int64_t d, const double *norms,
    const int32_t *indptr, const int32_t *indices, const int32_t *counts,
    const unsigned char *codes, const float *lut, int64_t pqm, int64_t pqk,
    const double *q, double qsq,
    const int64_t *seeds, int64_t nseeds, int64_t ef,
    int64_t max_ndc, int64_t max_hops, double deadline,
    int64_t *visit_gen, int64_t gen,
    double *cd, int32_t *ci,          /* candidate heap, capacity n  */
    double *rd, int32_t *ri,          /* result heap, capacity ef    */
    int32_t *out_ids, double *out_sq, /* capacity ef                 */
    int32_t *vis_ids, double *vis_sq, /* capacity n, NULL to skip    */
    int64_t *stats)                   /* {ndc, hops, visited, fired} */
{
    int64_t clen = 0, rlen = 0;
    int64_t ndc = 0, hops = 0, fired = 0;

    for (int64_t s = 0; s < nseeds; s++) {
        int64_t v = seeds[s];
        if (visit_gen[v] == gen) continue;
        if (max_ndc >= 0 && ndc >= max_ndc) { fired = 1; break; }
        visit_gen[v] = gen;
        double sq = lut ? adc_dist(codes + v * pqm, lut, pqm, pqk)
                        : sq_dist(data + v * d, q, d, qsq, norms[v]);
        if (vis_ids) { vis_ids[ndc] = (int32_t)v; vis_sq[ndc] = sq; }
        ndc++;
        if (rlen < ef) {
            res_push(rd, ri, &rlen, sq, (int32_t)v);
            cand_push(cd, ci, &clen, sq, (int32_t)v);
        } else if (sq < rd[0]) {
            res_sift_down(rd, ri, rlen, 0, sq, (int32_t)v);
            cand_push(cd, ci, &clen, sq, (int32_t)v);
        }
    }

    while (clen > 0 && !fired) {
        if (max_hops >= 0 && hops >= max_hops) { fired = 2; break; }
        if (max_ndc >= 0 && ndc >= max_ndc) { fired = 1; break; }
        if (deadline > 0.0 && hops % DEADLINE_CHECK_GRAIN == 0 &&
            mono_now() >= deadline) { fired = 3; break; }
        double du; int32_t u;
        cand_pop(cd, ci, &clen, &du, &u);
        if (rlen == ef && du > rd[0]) break;
        hops++;
        int64_t start = indptr[u];
        int64_t stop = counts ? start + counts[u] : indptr[u + 1];
        for (int64_t k = start; k < stop; k++) {
            int32_t v = indices[k];
            if (visit_gen[v] == gen) continue;
            if (max_ndc >= 0 && ndc >= max_ndc) { fired = 1; break; }
            visit_gen[v] = gen;
            double sq = lut
                ? adc_dist(codes + (int64_t)v * pqm, lut, pqm, pqk)
                : sq_dist(data + (int64_t)v * d, q, d, qsq, norms[v]);
            if (vis_ids) { vis_ids[ndc] = v; vis_sq[ndc] = sq; }
            ndc++;
            if (rlen < ef) {
                res_push(rd, ri, &rlen, sq, v);
                cand_push(cd, ci, &clen, sq, v);
            } else if (sq < rd[0]) {
                res_sift_down(rd, ri, rlen, 0, sq, v);
                cand_push(cd, ci, &clen, sq, v);
            }
        }
    }

    /* ascending (dist, id) — the order Python's finish() sorts into */
    for (int64_t i = 0; i < rlen; i++) {
        out_sq[i] = rd[i];
        out_ids[i] = ri[i];
    }
    for (int64_t i = 1; i < rlen; i++) {
        double dv = out_sq[i]; int32_t iv = out_ids[i];
        int64_t j = i - 1;
        while (j >= 0 && (out_sq[j] > dv ||
                          (out_sq[j] == dv && out_ids[j] > iv))) {
            out_sq[j + 1] = out_sq[j]; out_ids[j + 1] = out_ids[j];
            j--;
        }
        out_sq[j + 1] = dv; out_ids[j + 1] = iv;
    }

    stats[0] = ndc; stats[1] = hops; stats[2] = ndc; stats[3] = fired;
    return rlen;
}

/* -- RNG-heuristic selection scan (C3) -------------------------------
   ``cross`` is the float32 pairwise distance matrix NumPy computed for
   the sorted candidate list; candidate pos is accepted iff no already
   selected s occludes it, i.e. no (float)(alpha*cross[pos][s]) strictly
   below cand_d[pos].  The float multiply then double compare replicates
   NumPy's scalar-times-float32-array promotion followed by the mixed
   float32/float64 comparison, so every accept/reject bit matches the
   Python scan.  Returns the number of selected positions in out. */
int64_t select_rng(
    const float *cross, int64_t m, int64_t stride,
    const double *cand_d, int64_t max_degree, double alpha,
    int64_t *out)
{
    float alpha_f = (float)alpha;
    int64_t nsel = 0;
    for (int64_t pos = 0; pos < m && nsel < max_degree; pos++) {
        const float *row = cross + pos * stride;
        int occluded = 0;
        for (int64_t s = 0; s < nsel; s++) {
            float scaled = alpha_f * row[out[s]];
            if ((double)scaled < cand_d[pos]) { occluded = 1; break; }
        }
        if (!occluded) out[nsel++] = pos;
    }
    return nsel;
}

/* -- multi-threaded batch (the GIL-free scaling path) ----------------
   A pthread worker pool pulls grains of queries off an atomic cursor.
   Every per-query state (epoch array, both heaps) is thread-private
   and allocated here in C; every query writes only to its own fixed
   output slot (out_ids/out_sq/out_len/stats row i), so the results
   are bit-identical to the serial kernel regardless of thread count
   or scheduling order.  Per-thread wall-clock is recorded so Python
   can report worker utilization without re-entering the loop.  With
   ``codes`` non-NULL the batch is compressed: query i scores vertices
   through its own LUT slice (luts + i*pqm*pqk) against the shared
   uint8 code matrix and the float32 tier is never touched. */

#define MT_GRAIN 8

typedef struct {
    const float *data; int64_t n, d; const double *norms;
    const int32_t *indptr; const int32_t *indices;
    const unsigned char *codes;  /* compressed mode; NULL for exact */
    const float *luts;           /* nq stacked (pqm × pqk) tables    */
    int64_t pqm, pqk;
    const double *queries; const double *qsqs; int64_t nq;
    const int64_t *seed_indptr; const int64_t *seeds;
    int64_t ef;
    const int64_t *max_ndcs;
    const int64_t *max_hops;     /* per query, -1 = unlimited */
    const double *deadlines;     /* per query, seconds of wall-clock
                                    allowed from kernel entry; <= 0 = none */
    double deadline_base;        /* CLOCK_MONOTONIC at kernel entry */
    int32_t *out_ids; double *out_sq; int64_t *out_len; int64_t *stats;
    double *thread_busy;
    int64_t next;          /* atomic work cursor */
    int failed;            /* any thread could not allocate scratch */
} mt_job;

typedef struct { mt_job *job; int64_t tid; } mt_arg;

static void *mt_worker(void *argp) {
    mt_arg *arg = (mt_arg *)argp;
    mt_job *job = arg->job;
    double started = mono_now();
    int64_t n = job->n, ef = job->ef;
    int64_t *visit_gen = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    double *cd = (double *)malloc((size_t)n * sizeof(double));
    int32_t *ci = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    double *rd = (double *)malloc((size_t)ef * sizeof(double));
    int32_t *ri = (int32_t *)malloc((size_t)ef * sizeof(int32_t));
    if (!visit_gen || !cd || !ci || !rd || !ri) {
        job->failed = 1;
    } else {
        int64_t gen = 0;
        for (;;) {
            int64_t start = __sync_fetch_and_add(&job->next, MT_GRAIN);
            if (start >= job->nq) break;
            int64_t stop = start + MT_GRAIN;
            if (stop > job->nq) stop = job->nq;
            for (int64_t i = start; i < stop; i++) {
                gen++;
                /* a query's wall-clock allowance is measured from the
                   single kernel entry point — the deadline the serving
                   layer computed against request arrival — not from
                   whenever a thread happens to dequeue it */
                double dl = (job->deadlines && job->deadlines[i] > 0.0)
                    ? job->deadline_base + job->deadlines[i] : 0.0;
                job->out_len[i] = best_first(
                    job->data, job->d, job->norms,
                    job->indptr, job->indices, 0,
                    job->codes,
                    job->luts ? job->luts + i * job->pqm * job->pqk : 0,
                    job->pqm, job->pqk,
                    job->queries ? job->queries + i * job->d : 0,
                    job->qsqs ? job->qsqs[i] : 0.0,
                    job->seeds + job->seed_indptr[i],
                    job->seed_indptr[i + 1] - job->seed_indptr[i],
                    ef, job->max_ndcs[i], job->max_hops[i], dl,
                    visit_gen, gen, cd, ci, rd, ri,
                    job->out_ids + i * ef, job->out_sq + i * ef,
                    0, 0, job->stats + i * 4);
            }
        }
    }
    free(visit_gen); free(cd); free(ci); free(rd); free(ri);
    job->thread_busy[arg->tid] = mono_now() - started;
    return 0;
}

/* Returns 0 on success; non-zero means scratch allocation or thread
   creation failed and the caller must fall back (outputs undefined). */
int64_t best_first_batch_mt(
    const float *data, int64_t n, int64_t d, const double *norms,
    const int32_t *indptr, const int32_t *indices,
    const unsigned char *codes, const float *luts, int64_t pqm, int64_t pqk,
    const double *queries, const double *qsqs, int64_t nq,
    const int64_t *seed_indptr, const int64_t *seeds, int64_t ef,
    const int64_t *max_ndcs, const int64_t *max_hops,
    const double *deadlines,
    int32_t *out_ids, double *out_sq, int64_t *out_len,
    int64_t *stats, int64_t n_threads, double *thread_busy)
{
    mt_job job;
    job.data = data; job.n = n; job.d = d; job.norms = norms;
    job.indptr = indptr; job.indices = indices;
    job.codes = codes; job.luts = luts; job.pqm = pqm; job.pqk = pqk;
    job.queries = queries; job.qsqs = qsqs; job.nq = nq;
    job.seed_indptr = seed_indptr; job.seeds = seeds; job.ef = ef;
    job.max_ndcs = max_ndcs; job.max_hops = max_hops;
    job.deadlines = deadlines; job.deadline_base = mono_now();
    job.out_ids = out_ids; job.out_sq = out_sq; job.out_len = out_len;
    job.stats = stats; job.thread_busy = thread_busy;
    job.next = 0; job.failed = 0;
    if (n_threads > nq) n_threads = nq;
    if (n_threads < 1) n_threads = 1;
    for (int64_t t = 0; t < n_threads; t++) thread_busy[t] = 0.0;

    if (n_threads == 1) {
        mt_arg arg; arg.job = &job; arg.tid = 0;
        mt_worker(&arg);
        return job.failed ? 1 : 0;
    }

    pthread_t *tids = (pthread_t *)malloc((size_t)n_threads * sizeof(pthread_t));
    mt_arg *args = (mt_arg *)malloc((size_t)n_threads * sizeof(mt_arg));
    if (!tids || !args) { free(tids); free(args); return 1; }
    int64_t created = 0;
    for (; created < n_threads; created++) {
        args[created].job = &job; args[created].tid = created;
        if (pthread_create(&tids[created], 0, mt_worker, &args[created]) != 0) {
            job.failed = 1;
            break;
        }
    }
    for (int64_t t = 0; t < created; t++) pthread_join(tids[t], 0);
    free(tids); free(args);
    return job.failed ? 1 : 0;
}
"""

_INT64 = ctypes.c_int64
_DOUBLE = ctypes.c_double
#: every array parameter crosses as a raw address; :func:`_addr` makes the
#: checks (dtype, C-contiguity, None -> NULL) once per array, and a
#: context's long-lived arrays are checked once per binding
_PTR = ctypes.c_void_p
_F32, _F64, _I32, _I64, _U8 = map(
    np.dtype, (np.float32, np.float64, np.int32, np.int64, np.uint8)
)


def _addr(arr, dtype):
    """Buffer address of ``arr`` for a ``c_void_p`` parameter.

    Makes the checks NumPy's typed-pointer argtypes made: an ndarray of
    exactly ``dtype``, C-contiguous; ``None`` passes as NULL.
    Anything else raises :class:`TypeError` before C can dereference it.
    """
    if arr is None:
        return None
    if (not isinstance(arr, np.ndarray) or arr.dtype != dtype
            or not arr.flags.c_contiguous):
        got = (f"{arr.dtype} array, C-contiguous={arr.flags.c_contiguous}"
               if isinstance(arr, np.ndarray) else type(arr).__name__)
        raise TypeError(f"expected a C-contiguous {dtype} array, got {got}")
    return arr.ctypes.data


#: why the native kernel is unavailable (None when LIB loaded, or the
#: deliberate-opt-out/compile/load failure reason otherwise)
LOAD_ERROR: str | None = None

#: structured classification of LOAD_ERROR for the observability event:
#: None (loaded), "disabled", "compile", "link_pthread" (the -lpthread /
#: thread-runtime link step failed — the MT batch kernel's dependency),
#: or "load" (the built .so would not dlopen)
LOAD_ERROR_KIND: str | None = None


def _classify_failure(kind: str, detail: str) -> str:
    """Refine a failure stage into the structured event kind.

    A missing/broken pthread link is singled out because it is the one
    failure mode the multi-threaded batch kernel introduced: a box that
    compiled PR-1's serial kernels fine can still fail here, and a prod
    log that only said "compile failed" would hide that regression.
    """
    if "pthread" in detail.lower():
        return "link_pthread"
    return kind


def _build_library() -> ctypes.CDLL | None:
    global LOAD_ERROR, LOAD_ERROR_KIND
    if os.environ.get("REPRO_NO_NATIVE"):
        LOAD_ERROR = "disabled via REPRO_NO_NATIVE"
        LOAD_ERROR_KIND = "disabled"
        return None
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    build_dir = os.environ.get("REPRO_NATIVE_BUILD_DIR") or os.path.join(
        os.path.dirname(__file__), "_native_build"
    )
    so_path = os.path.join(build_dir, f"kernels-{digest}.so")
    if not os.path.exists(so_path):
        compiler = (
            sysconfig.get_config_var("CC") or os.environ.get("CC") or "cc"
        ).split()[0]
        try:
            os.makedirs(build_dir, exist_ok=True)
            fd, src_path = tempfile.mkstemp(suffix=".c", dir=build_dir)
            with os.fdopen(fd, "w") as handle:
                handle.write(_C_SOURCE)
            result = subprocess.run(
                [compiler, "-O2", "-ffp-contract=off", "-shared", "-fPIC",
                 src_path, "-o", so_path, "-lm", "-lpthread"],
                capture_output=True, timeout=120,
            )
            os.unlink(src_path)
            if result.returncode != 0:
                stderr = result.stderr.decode(errors="replace")[:500]
                LOAD_ERROR = (
                    f"{compiler} failed with code {result.returncode}: "
                    + stderr
                )
                LOAD_ERROR_KIND = _classify_failure("compile", stderr)
                return None
        except (OSError, subprocess.SubprocessError) as exc:
            LOAD_ERROR = f"compilation failed: {exc}"
            LOAD_ERROR_KIND = _classify_failure("compile", str(exc))
            return None
    try:
        lib = ctypes.CDLL(so_path)
    except OSError as exc:
        LOAD_ERROR = f"could not load {so_path}: {exc}"
        LOAD_ERROR_KIND = _classify_failure("load", str(exc))
        return None
    lib.sq_dists_to_rows.argtypes = [
        _PTR, _INT64, _INT64, _PTR, _DOUBLE, _PTR, _PTR,
    ]
    lib.sq_dists_to_rows.restype = None
    # the C walk's full parameter list: data, d, norms, indptr, indices, counts,
    # codes, lut, pqm, pqk, q, qsq, seeds, nseeds, ef, max_ndc,
    # max_hops, deadline, visit_gen, gen, cd, ci, rd, ri, out_ids,
    # out_sq, vis_ids, vis_sq, stats
    lib.best_first.argtypes = [
        _PTR, _INT64, _PTR, _PTR, _PTR, _PTR,
        _PTR, _PTR, _INT64, _INT64, _PTR, _DOUBLE,
        _PTR, _INT64, _INT64, _INT64, _INT64, _DOUBLE, _PTR, _INT64,
        _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
    ]
    lib.best_first.restype = _INT64
    lib.best_first_batch_mt.argtypes = [
        _PTR, _INT64, _INT64, _PTR, _PTR, _PTR,
        _PTR, _PTR, _INT64, _INT64, _PTR, _PTR, _INT64,
        _PTR, _PTR, _INT64, _PTR, _PTR, _PTR,
        _PTR, _PTR, _PTR, _PTR, _INT64, _PTR,
    ]
    lib.best_first_batch_mt.restype = _INT64
    lib.select_rng.argtypes = [
        _PTR, _INT64, _INT64, _PTR, _INT64, _DOUBLE, _PTR,
    ]
    lib.select_rng.restype = _INT64
    LOAD_ERROR = None
    LOAD_ERROR_KIND = None
    return lib


LIB = _build_library()


def _report_load_state() -> None:
    """Expose the kernel's availability through the observability layer.

    A serving deployment silently degrading to NumPy is the classic
    invisible incident: results stay identical while throughput drops
    ~8x.  The one-time ``RuntimeWarning`` is kept for interactive use,
    but the durable signals are structural — the
    ``repro_native_kernel_loaded`` gauge (scrapeable: alert on 0), a
    ``repro_native_kernel_load_failures_total`` counter, and a
    structured ``native.kernel_load_failed`` event carrying
    ``LOAD_ERROR`` in the machine-readable log.
    """
    from repro import observability as obs

    obs.REGISTRY.gauge(
        "repro_native_kernel_loaded",
        "Whether the C search kernel is active (1) or the pure-NumPy "
        "fallback is serving (0).",
    ).set(1 if LIB is not None else 0)
    if LIB is None and not os.environ.get("REPRO_NO_NATIVE"):
        obs.REGISTRY.counter(
            "repro_native_kernel_load_failures_total",
            "Times the C kernel failed to compile or load "
            "(deliberate REPRO_NO_NATIVE opt-outs are not counted).",
        ).inc()
        obs.get_logger("repro.native").warning(
            "native.kernel_load_failed", error=LOAD_ERROR or "unknown",
            error_kind=LOAD_ERROR_KIND or "unknown",
        )
        # Degrading to NumPy is safe (identical results, slower), but a
        # production operator should know it happened — warn exactly once.
        import warnings

        warnings.warn(
            f"repro: native search kernel unavailable ({LOAD_ERROR}); "
            "falling back to the pure-NumPy implementation",
            RuntimeWarning,
            stacklevel=2,
        )


_report_load_state()


def sq_dists_to_rows(
    query64: np.ndarray,
    rows: np.ndarray,
    rows_sq: np.ndarray,
    query_sq: float,
) -> np.ndarray:
    """C version of the expanded-form kernel (rows must be float32)."""
    out = np.empty(len(rows), dtype=np.float64)
    LIB.sq_dists_to_rows(
        _addr(rows, _F32), len(rows), rows.shape[1] if rows.ndim == 2 else 0,
        _addr(query64, _F64), query_sq, _addr(rows_sq, _F64),
        _addr(out, _F64),
    )
    return out


class _Binding:
    """A context's checked kernel arguments for one graph layout.

    The serial walk passes 29 arguments, and most of them are arrays
    that outlive the call: the float32 tier and its norms (or the PQ
    codes), the adjacency arrays, the epoch array, the heaps and the
    output buffers.  A binding checks each of them once and keeps its
    address, so a call checks only what changes per query (the query,
    the seeds, the LUT).  It holds the arrays themselves, so no bound
    address can outlive its buffer; :func:`_bind` replaces the binding
    whenever one of them is replaced (a new CSR after repair,
    consolidation or reordering, a new compressed tier, regrown heaps).
    """

    __slots__ = (
        "data", "visit_gen", "indptr", "indices", "counts", "codes", "cap",
        "arrays", "head", "gen_addr", "tail", "out_ids", "out_sq", "stats",
        "record_tail",
    )

    def __init__(self, ctx, indptr, indices, counts, codes, ef):
        self.data, self.visit_gen = ctx.data, ctx.visit_gen
        self.indptr, self.indices, self.counts = indptr, indices, counts
        self.codes = codes
        cd, ci, rd, ri = ctx.native_scratch(ef)
        self.cap = len(rd)
        self.out_ids = np.empty(self.cap, dtype=np.int32)
        self.out_sq = np.empty(self.cap, dtype=np.float64)
        self.stats = np.empty(4, dtype=np.int64)
        if codes is None:
            norms = ctx.norms_sq
            scored = (_addr(ctx.data, _F32), ctx.data.shape[1],
                      _addr(norms, _F64))
        else:   # ADC scoring never reads the float32 tier
            norms = None
            scored = (None, 0, None)
        #: everything whose address is cached, kept alive with it
        self.arrays = [norms, cd, ci, rd, ri]
        self.head = scored + (
            _addr(indptr, _I32), _addr(indices, _I32), _addr(counts, _I32),
            _addr(codes, _U8),
        )
        self.gen_addr = _addr(ctx.visit_gen, _I64)
        # cd, ci, rd, ri, out_ids, out_sq, vis_ids, vis_sq, stats
        self.tail = (
            _addr(cd, _F64), _addr(ci, _I32), _addr(rd, _F64),
            _addr(ri, _I32), _addr(self.out_ids, _I32),
            _addr(self.out_sq, _F64), None, None, _addr(self.stats, _I64),
        )
        self.record_tail = None

    def recording(self, ctx):
        """The tail that also fills the visited log (bound on first use)."""
        if self.record_tail is None:
            vis_ids, vis_sq = ctx.visited_scratch()
            self.arrays += [vis_ids, vis_sq]
            self.record_tail = self.tail[:6] + (
                _addr(vis_ids, _I32), _addr(vis_sq, _F64), self.tail[8],
            )
        return self.record_tail


def _bind(ctx, indptr, indices, counts, ef) -> _Binding:
    """``ctx``'s binding for this layout, rebound if any array moved."""
    tier = ctx.compressed
    codes = None if tier is None else tier.codes
    b = ctx.native_binding
    if (b is None or ef > b.cap or b.indices is not indices
            or b.indptr is not indptr or b.counts is not counts
            or b.codes is not codes or b.data is not ctx.data
            or b.visit_gen is not ctx.visit_gen):
        b = ctx.native_binding = _Binding(ctx, indptr, indices, counts,
                                          codes, ef)
    return b


def _walk(ctx, indptr, indices, counts, query64, query_sq, seeds, ef,
          max_ndc=-1, max_hops=-1, deadline=0.0, record=False):
    """One serial C walk on ``ctx``'s scratch at its current generation.

    Scores exactly against ``ctx.data``, or — when ``ctx.compressed``
    is set — from the tier's uint8 codes through ``ctx.lut`` without
    reading a float32 row.  ``deadline`` is an
    absolute ``time.monotonic()`` second count (``<= 0`` means none);
    ``record`` fills the context's visited log.  Returns ``(rlen,
    out_ids, out_sq, stats)``, all buffers of the binding that the next
    walk on ``ctx`` overwrites.
    """
    b = _bind(ctx, indptr, indices, counts, ef)
    if b.codes is None:
        lut, pqm, pqk = None, 0, 0
        query = _addr(query64, _F64)
    else:
        lut, query = ctx.lut, None
        pqm, pqk = b.codes.shape[1], lut.shape[1]
        lut = _addr(lut, _F32)
    rlen = LIB.best_first(
        *b.head, lut, pqm, pqk, query, query_sq,
        _addr(seeds, _I64), len(seeds), ef, max_ndc, max_hops, deadline,
        b.gen_addr, ctx.generation,
        *(b.recording(ctx) if record else b.tail),
    )
    return rlen, b.out_ids, b.out_sq, b.stats


def best_first(ctx, graph, query64, query_sq, seeds, ef,
               max_ndc=-1, max_hops=-1, deadline=0.0):
    """Run the whole best-first search in C against a frozen CSR graph.

    ``graph`` may also be graph-like with a ``counts`` array giving each
    row's live length; its ``csr()`` indptr then holds row starts, as in
    :func:`best_first_build` (the delta tier's layout).

    ``ctx`` is a :class:`repro.components.context.SearchContext` whose
    scratch buffers (epoch array, heaps) this call borrows; with
    ``ctx.compressed`` set the walk scores ADC surrogates from the
    tier's codes and ``ctx.lut``, and the NDC stat counts table
    lookups.  Negative ``max_ndc`` / ``max_hops`` mean unlimited
    (QueryBudget caps); ``deadline`` is an absolute ``time.monotonic()``
    second count, checked every few expansions (``<= 0`` means none).
    Returns ``(ids, sq_dists, ndc, hops, visited, budget_fired)`` where
    ``budget_fired`` is ``None``, ``"ndc"``, ``"hops"`` or
    ``"deadline"``.
    """
    indptr, indices = graph.csr()
    rlen, out_ids, out_sq, stats = _walk(
        ctx, indptr, indices, graph.counts, query64, query_sq, seeds, ef,
        max_ndc, max_hops, deadline,
    )
    return (
        out_ids[:rlen].astype(np.int64),
        out_sq[:rlen].copy(),
        int(stats[0]), int(stats[1]), int(stats[2]),
        _FIRED_LABELS[int(stats[3])],
    )


def best_first_build(ctx, indptr, indices, counts, query64, query_sq,
                     seeds, ef):
    """Visited-recording best-first search for the construction path.

    ``indptr``/``indices`` are either a frozen CSR pair (``counts`` is
    None) or, with an int32 ``counts`` array, per-row offsets into a
    flattened padded adjacency matrix — the layout Vamana uses while its
    graph is still evolving.  ``seeds`` must be unique int64 ids (the
    Python frontier uniques them too).  Consumes one visited generation
    from ``ctx``.  Returns ``(visited_ids, visited_sq, ndc)`` in
    evaluation order, views of the context's visited log; callers sort
    by ``(sq, id)`` to match the Python frontier's output.
    """
    ctx.generation += 1
    _, _, _, stats = _walk(ctx, indptr, indices, counts, query64, query_sq,
                           seeds, ef, record=True)
    nvis = int(stats[2])
    vis_ids, vis_sq = ctx.visited_scratch()
    return vis_ids[:nvis], vis_sq[:nvis], int(stats[0])


_FIRED_LABELS = {0: None, 1: "ndc", 2: "hops", 3: "deadline"}


def _batch_mt(graph, nq, seed_indptr, seeds, ef, n_threads, max_ndcs,
              max_hops, deadlines, data=None, norms=None, queries=None,
              qsqs=None, codes=None, luts=None):
    """Whole-batch search on the pthread pool: one GIL-released C call.

    ``max_ndcs``/``max_hops``/``deadlines`` each accept ``None``
    (unlimited), a scalar applied to every query, or a per-query array;
    a deadline is a wall-clock allowance in seconds measured from kernel
    entry (``<= 0`` = none), a cap ``-1`` = unlimited.
    """
    indptr, indices = graph.csr()
    n_threads = max(1, min(int(n_threads), max(nq, 1)))

    def per_query(cap, unlimited, dtype):
        if cap is None or np.isscalar(cap):
            return np.full(nq, unlimited if cap is None else cap, dtype=dtype)
        return np.ascontiguousarray(cap, dtype=dtype)

    max_ndcs = per_query(max_ndcs, -1, np.int64)
    max_hops = per_query(max_hops, -1, np.int64)
    deadlines = per_query(deadlines, 0.0, np.float64)
    out_ids = np.empty((nq, ef), dtype=np.int32)
    out_sq = np.empty((nq, ef), dtype=np.float64)
    out_len = np.empty(nq, dtype=np.int64)
    stats = np.empty((nq, 4), dtype=np.int64)
    thread_busy = np.zeros(n_threads, dtype=np.float64)
    if codes is None:
        n, d, pqm, pqk = len(data), data.shape[1], 0, 0
    else:
        n, d, pqm, pqk = len(codes), 0, codes.shape[1], luts.shape[2]
    rc = LIB.best_first_batch_mt(
        _addr(data, _F32), n, d, _addr(norms, _F64),
        _addr(indptr, _I32), _addr(indices, _I32),
        _addr(codes, _U8), _addr(luts, _F32), pqm, pqk,
        _addr(queries, _F64), _addr(qsqs, _F64), nq,
        _addr(seed_indptr, _I64), _addr(seeds, _I64), ef,
        _addr(max_ndcs, _I64), _addr(max_hops, _I64),
        _addr(deadlines, _F64),
        _addr(out_ids, _I32), _addr(out_sq, _F64), _addr(out_len, _I64),
        _addr(stats, _I64), n_threads, _addr(thread_busy, _F64),
    )
    if rc != 0:
        raise MemoryError(
            "best_first_batch_mt could not allocate per-thread scratch"
        )
    return out_ids, out_sq, out_len, stats, thread_busy


def best_first_batch_mt(data, norms_sq, graph, queries64, qsqs,
                        seed_indptr, seeds, ef, n_threads,
                        max_ndcs=None, max_hops=-1, deadlines=None):
    """Exact whole-batch search on the pthread pool.

    Needs no :class:`~repro.components.context.SearchContext` — every
    thread allocates its own epoch array and heaps in C and every query
    writes a fixed output slot, so ids/dists/stats are bit-identical to
    the serial kernel for any ``n_threads``.  Returns ``(ids, sq,
    lengths, stats, thread_busy)``; ``stats`` columns are {ndc, hops,
    visited, budget_fired_code} and ``thread_busy`` holds per-thread
    busy seconds.  Raises :class:`MemoryError` when the kernel could not
    allocate scratch or spawn threads — callers fall back to the
    per-query path.
    """
    return _batch_mt(
        graph, len(queries64), seed_indptr, seeds, ef, n_threads,
        max_ndcs, max_hops, deadlines,
        data=data, norms=norms_sq, queries=queries64, qsqs=qsqs,
    )


def best_first_batch_adc_mt(codes, luts, graph, nq, seed_indptr, seeds,
                            ef, n_threads, max_ndcs=None, max_hops=-1,
                            deadlines=None):
    """Compressed whole-batch search on the pthread pool.

    ``luts`` is the stacked ``(nq, M, K)`` float32 table block (one GEMM
    per subspace built it for the whole batch); query ``i`` walks the
    shared uint8 ``codes`` through its own slice.  Same output contract
    as :func:`best_first_batch_mt` (the first stat counts ADC lookups),
    so results are bit-identical for any thread count — and, because the
    Python fallback gathers from the same float32 tables in the same
    subspace order, bit-identical to the pure-NumPy path too.
    """
    return _batch_mt(
        graph, nq, seed_indptr, seeds, ef, n_threads,
        max_ndcs, max_hops, deadlines, codes=codes, luts=luts,
    )


def select_rng_scan(cross, cand_dists, max_degree, alpha=1.0):
    """C scan of the RNG-heuristic occlusion rule.

    ``cross`` is the float32 pairwise matrix for the (sorted) candidate
    list and ``cand_dists`` their float64 distances to the point being
    linked.  Returns the selected *positions* (int64) in selection
    order; decisions are bit-identical to the Python scan because the
    comparison floats are the same objects.
    """
    m = len(cand_dists)
    out = np.empty(m, dtype=np.int64)
    nsel = LIB.select_rng(
        _addr(cross, _F32), m, cross.shape[1], _addr(cand_dists, _F64),
        max_degree, alpha, _addr(out, _I64),
    )
    return out[:nsel]
