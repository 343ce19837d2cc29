/* Native twin of the packed-F2 walk in mmrank.flipgraph.engine.
 *
 * This file transliterates engine._Walk step for step: the same candidate
 * enumeration order, greedy-reduction rule with forbidden pairs,
 * swap-remove compaction, plus draws and xoshiro256** stream.  Any change
 * to the walk must be made in both; the tests compare whole trajectories.
 *
 * Plain C99 with no Python headers: mmrank.flipgraph._native compiles it
 * with the system cc on first import and calls mmrank_walk_f2 through
 * ctypes.  Terms are flat (u, v, w) triples of n*n-bit masks; the caller
 * allocates every output buffer, sized from the bounds documented at
 * mmrank_walk_f2.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Status codes returned by mmrank_walk_f2. */
enum { WALK_OK = 0, WALK_UNSOUND = 1, WALK_BAD_ARGS = 2, WALK_NO_MEMORY = 3, WALK_FULL = 4 };

/* Trace record kinds; a record is (kind, a, b, c, d) with unused fields 0. */
enum { TRACE_FLIP = 0, TRACE_REDUCE = 1, TRACE_PLUS = 2 };

typedef struct {
    uint64_t rng[4];
    int n2, W, T, cap;
    uint64_t space;
    uint64_t *fac[3];       /* factor of each term, per slot */
    uint64_t *svals[3];     /* per slot: (value, index) pairs sorted by (value, index) */
    int32_t *sidx[3];
    int live[3];            /* pairs held per slot (equals T between moves) */
    unsigned char *dirty;   /* terms awaiting the greedy reduction */
    int32_t *forb;          /* forbidden pairs (a, b) with a < b, one per live plus split */
    int forb_n;
    const uint64_t *target;
    uint64_t *scratch;      /* W words for the expansion check */
    uint64_t *best;         /* caller's buffer: best terms as flat triples */
    int best_rank;
    int32_t *trace;         /* caller's buffer of 5-field records, or NULL */
    int64_t trace_cap, trace_n;
    int status;             /* WALK_FULL or WALK_BAD_ARGS once a buffer would overflow */
} Walk;

/* -- rng ------------------------------------------------------------------- */

static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

static void seed_rng(Walk *w, uint64_t seed) {
    uint64_t x = seed, z;
    for (int i = 0; i < 4; i++) {
        x += UINT64_C(0x9E3779B97F4A7C15);
        z = x;
        z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
        w->rng[i] = z ^ (z >> 31);
    }
}

static uint64_t next_u64(Walk *w) {
    uint64_t *s = w->rng;
    uint64_t result = rotl(s[1] * 5, 7) * 9;
    uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

static uint64_t below(Walk *w, uint64_t m) { return next_u64(w) % m; }

/* -- trace ------------------------------------------------------------------ */

static void emit(Walk *w, int kind, int a, int b, int c, int d) {
    if (!w->trace)
        return;
    if (w->trace_n >= w->trace_cap) {
        w->status = WALK_BAD_ARGS;
        return;
    }
    int32_t *r = w->trace + 5 * w->trace_n++;
    r[0] = kind, r[1] = a, r[2] = b, r[3] = c, r[4] = d;
}

/* -- sorted slot arrays ------------------------------------------------------ */

/* Position of the first pair >= (val, idx) in slot s. */
static int pair_pos(const Walk *w, int s, uint64_t val, int idx) {
    const uint64_t *vals = w->svals[s];
    const int32_t *idxs = w->sidx[s];
    int lo = 0, hi = w->live[s];
    while (lo < hi) {
        int mid = (lo + hi) >> 1;
        if (vals[mid] < val || (vals[mid] == val && idxs[mid] < idx))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static void ins_pair(Walk *w, int s, uint64_t val, int idx) {
    int pos = pair_pos(w, s, val, idx);
    int tail = w->live[s] - pos;
    memmove(w->svals[s] + pos + 1, w->svals[s] + pos, tail * sizeof(uint64_t));
    memmove(w->sidx[s] + pos + 1, w->sidx[s] + pos, tail * sizeof(int32_t));
    w->svals[s][pos] = val;
    w->sidx[s][pos] = idx;
    w->live[s]++;
}

static void del_pair(Walk *w, int s, uint64_t val, int idx) {
    int pos = pair_pos(w, s, val, idx);
    int tail = w->live[s] - pos - 1;
    memmove(w->svals[s] + pos, w->svals[s] + pos + 1, tail * sizeof(uint64_t));
    memmove(w->sidx[s] + pos, w->sidx[s] + pos + 1, tail * sizeof(int32_t));
    w->live[s]--;
}

static void set_factor(Walk *w, int s, int t, uint64_t v) {
    del_pair(w, s, w->fac[s][t], t);
    w->fac[s][t] = v;
    ins_pair(w, s, v, t);
}

/* -- forbidden pairs ----------------------------------------------------------- */

static void unforbid(Walk *w, int idx) {
    int i = 0;
    while (i < w->forb_n) {
        if (w->forb[2 * i] == idx || w->forb[2 * i + 1] == idx) {
            w->forb_n--;
            w->forb[2 * i] = w->forb[2 * w->forb_n];
            w->forb[2 * i + 1] = w->forb[2 * w->forb_n + 1];
        } else {
            i++;
        }
    }
}

static int is_forbidden(const Walk *w, int a, int b) {
    for (int i = 0; i < w->forb_n; i++)
        if (w->forb[2 * i] == a && w->forb[2 * i + 1] == b)
            return 1;
    return 0;
}

static void remap_forbidden(Walk *w, int old, int new_idx) {
    for (int i = 0; i < w->forb_n; i++) {
        int a = w->forb[2 * i], b = w->forb[2 * i + 1];
        a = a == old ? new_idx : a;
        b = b == old ? new_idx : b;
        w->forb[2 * i] = a < b ? a : b;
        w->forb[2 * i + 1] = a < b ? b : a;
    }
}

/* -- removal ------------------------------------------------------------------- */

static void swap_remove(Walk *w, int x) {
    int last = w->T - 1;
    w->dirty[x] = 0;
    unforbid(w, x);
    for (int s = 0; s < 3; s++)
        del_pair(w, s, w->fac[s][x], x);
    if (x != last) {
        for (int s = 0; s < 3; s++) {
            uint64_t v = w->fac[s][last];
            del_pair(w, s, v, last);
            w->fac[s][x] = v;
            ins_pair(w, s, v, x);
        }
        w->dirty[x] = w->dirty[last]; /* x's flag was cleared above */
        w->dirty[last] = 0;
        remap_forbidden(w, last, x);
    }
    w->T--;
}

/* -- reductions ---------------------------------------------------------------- */

/* Smallest other index sharing at least two slots with t and not
 * forbidden with it, or -1. */
static int min_partner(const Walk *w, int t) {
    static const int pairs[3][2] = {{0, 1}, {0, 2}, {1, 2}};
    int best = -1;
    for (int p = 0; p < 3; p++) {
        int sa = pairs[p][0], sb = pairs[p][1];
        uint64_t va = w->fac[sa][t], vb = w->fac[sb][t];
        int a0 = pair_pos(w, sa, va, 0), a1 = pair_pos(w, sa, va, INT32_MAX);
        if (a1 - a0 < 2)
            continue;
        int b0 = pair_pos(w, sb, vb, 0), b1 = pair_pos(w, sb, vb, INT32_MAX);
        if (b1 - b0 < 2)
            continue;
        int ia = a0, ib = b0;
        while (ia < a1 && ib < b1) {
            int aa = w->sidx[sa][ia], bb = w->sidx[sb][ib];
            if (aa == bb) {
                if (aa != t && !is_forbidden(w, aa < t ? aa : t, aa < t ? t : aa)) {
                    if (best == -1 || aa < best)
                        best = aa;
                    break; /* members ascend; first hit is minimal for this pair */
                }
                ia++;
                ib++;
            } else if (aa < bb) {
                ia++;
            } else {
                ib++;
            }
        }
    }
    return best;
}

static int greedy_reduce(Walk *w) {
    int reduced = 0;
    for (;;) {
        int t = -1;
        for (int a = 0; a < w->T && t == -1; a++)
            if (w->dirty[a])
                t = a;
        if (t == -1)
            return reduced;
        w->dirty[t] = 0;
        int j = min_partner(w, t);
        if (j == -1)
            continue;
        int a = t < j ? t : j, b = t < j ? j : t;
        int shared[3], nshared = 0;
        for (int s = 0; s < 3; s++)
            if (w->fac[s][a] == w->fac[s][b])
                shared[nshared++] = s;
        int o = nshared == 3 ? 2 : 3 - shared[0] - shared[1];
        uint64_t merged = w->fac[o][a] ^ w->fac[o][b];
        emit(w, TRACE_REDUCE, a, b, o, 0);
        if (merged == 0) {
            swap_remove(w, b);
            swap_remove(w, a);
        } else {
            set_factor(w, o, a, merged);
            unforbid(w, a);
            swap_remove(w, b);
            w->dirty[a] = 1;
        }
        reduced = 1;
    }
}

/* -- flips --------------------------------------------------------------------- */

static int64_t count_candidates(const Walk *w) {
    int64_t total = 0;
    for (int s = 0; s < 3; s++) {
        const uint64_t *vals = w->svals[s];
        int nlive = w->live[s], pos = 0;
        while (pos < nlive) {
            int run = 1;
            while (pos + run < nlive && vals[pos + run] == vals[pos])
                run++;
            total += 2 * (int64_t)run * (run - 1);
            pos += run;
        }
    }
    return total;
}

static int apply_flip(Walk *w, int i, int j, int s, int o) {
    static const int other[3][2] = {{1, 2}, {0, 2}, {0, 1}};
    int oa = other[s][o], ob = other[s][1 - o];
    uint64_t new_i = w->fac[oa][i] ^ w->fac[oa][j];
    uint64_t new_j = w->fac[ob][j] ^ w->fac[ob][i];
    set_factor(w, oa, i, new_i);
    set_factor(w, ob, j, new_j);
    unforbid(w, i);
    unforbid(w, j);
    emit(w, TRACE_FLIP, i, j, s, o);
    w->dirty[i] = new_i != 0;
    w->dirty[j] = new_j != 0;
    if (new_i == 0 && new_j == 0) {
        swap_remove(w, i > j ? i : j);
        swap_remove(w, i > j ? j : i);
    } else if (new_i == 0) {
        swap_remove(w, i);
    } else if (new_j == 0) {
        swap_remove(w, j);
    }
    return greedy_reduce(w);
}

/* Apply flip candidate k of count_candidates' enumeration. */
static int apply_flip_at(Walk *w, int64_t k) {
    for (int s = 0; s < 3; s++) {
        const uint64_t *vals = w->svals[s];
        int nlive = w->live[s], pos = 0;
        while (pos < nlive) {
            int m = 1;
            while (pos + m < nlive && vals[pos + m] == vals[pos])
                m++;
            int64_t c = 2 * (int64_t)m * (m - 1);
            if (k < c) {
                int o = (int)(k & 1);
                int64_t pair = k >> 1;
                int x = (int)(pair / (m - 1)), y = (int)(pair % (m - 1));
                if (y >= x)
                    y++;
                return apply_flip(w, w->sidx[s][pos + x], w->sidx[s][pos + y], s, o);
            }
            k -= c;
            pos += m;
        }
    }
    w->status = WALK_BAD_ARGS; /* unreachable: k is below the candidate count */
    return 0;
}

/* -- plus moves ------------------------------------------------------------------ */

static int try_plus(Walk *w, int64_t *plus_left) {
    if (w->T == 0) {
        *plus_left = 0;
        return 0;
    }
    int t = (int)below(w, (uint64_t)w->T);
    int s = (int)below(w, 3);
    uint64_t a = w->fac[s][t], a1 = 0;
    for (int attempt = 0; attempt < 100 && a1 == 0; attempt++) {
        uint64_t cand = below(w, w->space);
        if (cand != 0 && cand != a)
            a1 = cand;
    }
    if (a1 == 0) {
        *plus_left = 0;
        return 0;
    }
    if (w->T >= w->cap) {
        w->status = WALK_FULL;
        return 0;
    }
    set_factor(w, s, t, a1);
    unforbid(w, t);
    int new_idx = w->T;
    for (int sl = 0; sl < 3; sl++) {
        uint64_t v = sl == s ? a ^ a1 : w->fac[sl][t];
        w->fac[sl][new_idx] = v;
        ins_pair(w, sl, v, new_idx);
    }
    w->T++;
    emit(w, TRACE_PLUS, t, s, 0, 0);
    w->forb[2 * w->forb_n] = t; /* t < new_idx */
    w->forb[2 * w->forb_n + 1] = new_idx;
    w->forb_n++;
    w->dirty[t] = w->dirty[new_idx] = 1;
    greedy_reduce(w);
    (*plus_left)--;
    return 1;
}

/* -- verification ------------------------------------------------------------------ */

static int expansion_matches(Walk *w) {
    int n2 = w->n2;
    memset(w->scratch, 0, w->W * sizeof(uint64_t));
    for (int t = 0; t < w->T; t++) {
        uint64_t u = w->fac[0][t], v = w->fac[1][t], ww = w->fac[2][t];
        for (int abit = 0; abit < n2; abit++) {
            if (!((u >> abit) & 1))
                continue;
            for (int bbit = 0; bbit < n2; bbit++) {
                if (!((v >> bbit) & 1))
                    continue;
                int base = (abit * n2 + bbit) * n2, lo = base >> 6, sh = base & 63;
                w->scratch[lo] ^= ww << sh;
                if (sh + n2 > 64)
                    w->scratch[lo + 1] ^= ww >> (64 - sh);
            }
        }
    }
    return memcmp(w->scratch, w->target, w->W * sizeof(uint64_t)) == 0;
}

/* -- the walk ------------------------------------------------------------------------- */

static void snapshot_if_better(Walk *w) {
    if (w->best_rank != -1 && w->T >= w->best_rank)
        return;
    w->best_rank = w->T;
    for (int t = 0; t < w->T; t++)
        for (int s = 0; s < 3; s++)
            w->best[3 * t + s] = w->fac[s][t];
}

static int run(Walk *w, int64_t max_steps, int64_t plus_left, int64_t patience,
               int64_t verify_every, int64_t target_rank, int64_t *steps_out) {
    int64_t steps = 0, fails = 0;
    for (int t = 0; t < w->T; t++)
        w->dirty[t] = 1;
    greedy_reduce(w);
    snapshot_if_better(w);
    while (steps < max_steps && w->status == WALK_OK) {
        if (target_rank >= 0 && w->best_rank <= target_rank)
            break;
        int64_t n_flips = count_candidates(w);
        int moved = 0;
        if (plus_left > 0 && (fails >= patience || n_flips == 0)) {
            moved = try_plus(w, &plus_left);
            if (moved)
                fails = 0;
        }
        if (!moved) {
            if (n_flips == 0)
                break; /* no flip, and any plus move tried above failed */
            if (apply_flip_at(w, (int64_t)below(w, (uint64_t)n_flips)))
                fails = 0;
            else
                fails++;
        }
        steps++;
        snapshot_if_better(w);
        if (verify_every && steps % verify_every == 0 && !expansion_matches(w))
            return WALK_UNSOUND;
    }
    *steps_out = steps;
    if (w->status != WALK_OK)
        return w->status;
    return expansion_matches(w) ? WALK_OK : WALK_UNSOUND;
}

/* One packed-F2 walk; see mmrank.flipgraph.engine for the contract.
 *
 * In: n (1..7), n_terms start triples in terms[3 * n_terms], the target
 * tensor as n_words = ceil(n**6 / 64) little-endian words, the seed and
 * limits (target_rank -1 means none).  term_cap bounds the live terms: a
 * plus move that would exceed it stops the walk with WALK_FULL, and a
 * rerun with a larger cap repeats the same trajectory.  Only a plus move
 * adds a term, and it costs a step, so with plus moves P = min(plus_budget,
 * max_steps) a cap of n_terms + P is never exceeded.
 *
 * Out: best holds n_terms triples (the best rank never exceeds the start
 * rank) and final term_cap triples; trace, unless NULL, holds trace_cap
 * records of 5 fields, and max_steps + n_terms + P records always
 * suffice (each flip or plus move is a step; each reduction removes a
 * term).  counts[0..3] receive the best rank, the steps taken, the final
 * term count and the trace length.
 *
 * Returns WALK_OK, WALK_UNSOUND when the state stopped expanding to the
 * target, WALK_BAD_ARGS for invalid input or a full trace buffer,
 * WALK_NO_MEMORY and WALK_FULL. */
int mmrank_walk_f2(int32_t n, const uint64_t *terms, int64_t n_terms,
                   const uint64_t *target, int64_t n_words, uint64_t seed,
                   int64_t max_steps, int64_t plus_budget, int64_t patience,
                   int64_t verify_every, int64_t target_rank, int64_t term_cap,
                   uint64_t *best, uint64_t *final, int32_t *trace,
                   int64_t trace_cap, int64_t *counts) {
    if (n < 1 || n > 7 || max_steps < 1 || n_terms < 0 || term_cap < n_terms
        || term_cap > INT32_MAX || plus_budget < 0 || patience < 0 || verify_every < 0
        || n_words != ((int64_t)n * n * n * n * n * n + 63) / 64)
        return WALK_BAD_ARGS;
    Walk w;
    memset(&w, 0, sizeof w);
    w.n2 = n * n;
    w.space = UINT64_C(1) << w.n2;
    w.W = (int)n_words;
    w.cap = (int)term_cap;
    w.target = target;
    w.best = best;
    w.best_rank = -1;
    w.trace = trace;
    w.trace_cap = trace_cap;
    for (int64_t t = 0; t < 3 * n_terms; t++)
        if (terms[t] >= w.space)
            return WALK_BAD_ARGS;

    /* One block: 64-bit arrays first, then 32-bit, then bytes.  Left
     * uninitialized, so pages beyond the live terms are never touched. */
    size_t cap = (size_t)(term_cap > 0 ? term_cap : 1);
    size_t per_term = 6 * sizeof(uint64_t) + 5 * sizeof(int32_t) + 1;
    if (cap > (SIZE_MAX - w.W * sizeof(uint64_t)) / per_term)
        return WALK_NO_MEMORY;
    unsigned char *block = malloc(cap * per_term + w.W * sizeof(uint64_t));
    if (!block)
        return WALK_NO_MEMORY;
    uint64_t *u64 = (uint64_t *)block;
    for (int s = 0; s < 3; s++) {
        w.fac[s] = u64 + s * cap;
        w.svals[s] = u64 + (3 + s) * cap;
    }
    w.scratch = u64 + 6 * cap;
    int32_t *i32 = (int32_t *)(w.scratch + w.W);
    for (int s = 0; s < 3; s++)
        w.sidx[s] = i32 + s * cap;
    w.forb = i32 + 3 * cap;
    w.dirty = (unsigned char *)(i32 + 5 * cap);

    seed_rng(&w, seed);
    for (int64_t t = 0; t < n_terms; t++) {
        const uint64_t *f = terms + 3 * t;
        if (f[0] && f[1] && f[2]) {
            for (int s = 0; s < 3; s++)
                w.fac[s][w.T] = f[s];
            w.T++;
        }
    }
    for (int s = 0; s < 3; s++)
        for (int t = 0; t < w.T; t++)
            ins_pair(&w, s, w.fac[s][t], t);

    int64_t steps = 0;
    int status = run(&w, max_steps, plus_budget, patience, verify_every, target_rank, &steps);
    for (int t = 0; t < w.T; t++)
        for (int s = 0; s < 3; s++)
            final[3 * t + s] = w.fac[s][t];
    counts[0] = w.best_rank, counts[1] = steps, counts[2] = w.T, counts[3] = w.trace_n;
    free(block);
    return status;
}
