/* Native twin of the walk in mmrank.flipgraph.engine, over F2 and F3.
 *
 * This file transliterates engine._Walk step for step: the same candidate
 * enumeration order, greedy-reduction rule with forbidden pairs,
 * swap-remove compaction, plus draws and xoshiro256** stream.  Any change
 * to the walk must be made in both; the tests compare whole trajectories.
 *
 * One walk body serves both fields through the field layer below.  A
 * factor is one uint64 that is also its group key: over F2 the n*n-bit
 * mask of PackedF2Kernel, over F3 the base-3 integer sum x_i 3^i of its
 * entries, which orders as GenericKernel.key does and is exactly the
 * factor GenericKernel.decode_draw makes of a draw (3^36 < 2^63, so
 * n <= 6).  The zero factor is 0 in both fields.  Arithmetic runs on two
 * bit planes, one for the entries equal to 1 and one for those equal to 2
 * (bitsliced GF(3), after Boothby & Bradshaw); over F2 the second plane
 * stays empty.
 *
 * Plain C99 with no Python headers: mmrank.flipgraph._native compiles it
 * with the system cc on first import and calls mmrank_walk through
 * ctypes.  Terms are flat (u, v, w) key triples.  The caller allocates the
 * best-term and trace buffers, sized from the bounds documented at
 * mmrank_walk; the kernel grows its own state and hands the final terms
 * back in a buffer that the caller releases with mmrank_free.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Status codes returned by mmrank_walk. */
enum { WALK_OK = 0, WALK_UNSOUND = 1, WALK_BAD_ARGS = 2, WALK_NO_MEMORY = 3 };

/* Trace record kinds; a record is (kind, a, b, c, d) with unused fields 0. */
enum { TRACE_FLIP = 0, TRACE_REDUCE = 1, TRACE_PLUS = 2 };

/* F3 keys convert to planes CHUNK base-3 digits at a time. */
enum { CHUNK = 6, CHUNK_SPACE = 729, CHUNK_MASK = 63 };

typedef struct { uint64_t lo, hi; } Planes; /* entries equal to 1, to 2 */

typedef struct {
    uint64_t rng[4];
    int p, nplanes, top;    /* field, target planes, bit of the top F3 chunk */
    int n2, W, T, cap;
    uint64_t space;         /* p^(n*n): draws and factors lie below it */
    uint64_t *fac[3];       /* factor of each term, per slot */
    uint64_t *svals[3];     /* per slot: (value, index) pairs sorted by (value, index) */
    int32_t *sidx[3];
    int live[3];            /* pairs held per slot (equals T between moves) */
    int64_t cand[3];        /* flip candidates per slot: 2m(m-1) summed over its groups of m */
    unsigned char *dirty;   /* terms awaiting the greedy reduction */
    int32_t *forb;          /* forbidden pairs (a, b) with a < b, one per live plus split */
    int forb_n;
    const uint64_t *target; /* nplanes planes of W words */
    uint64_t *acc;          /* nplanes * W words for the expansion check */
    uint64_t *best;         /* caller's buffer: best terms as flat triples */
    int best_rank;
    int32_t *trace;         /* caller's buffer of 5-field records, or NULL */
    int64_t trace_cap, trace_n;
    int status;             /* WALK_BAD_ARGS or WALK_NO_MEMORY once a move cannot proceed */
    uint16_t to_planes[CHUNK_SPACE];            /* F3: digits -> lo | hi << CHUNK */
    uint16_t to_key[1 << (2 * CHUNK)];          /* F3: lo | hi << CHUNK -> digits */
} Walk;

/* -- the field layer ---------------------------------------------------------- */

static void init_f3(Walk *w) {
    for (unsigned x = 0; x < CHUNK_SPACE; x++) {
        unsigned lo = 0, hi = 0, y = x;
        for (int k = 0; k < CHUNK; k++, y /= 3) {
            lo |= (unsigned)(y % 3 == 1) << k;
            hi |= (unsigned)(y % 3 == 2) << k;
        }
        w->to_planes[x] = (uint16_t)(lo | hi << CHUNK);
        w->to_key[lo | hi << CHUNK] = (uint16_t)x;
    }
}

static Planes planes(const Walk *w, uint64_t x) {
    Planes r = {x, 0};
    if (w->p == 3) {
        r.lo = 0;
        for (int k = 0; x; k += CHUNK, x /= CHUNK_SPACE) {
            unsigned d = w->to_planes[x % CHUNK_SPACE];
            r.lo |= (uint64_t)(d & CHUNK_MASK) << k;
            r.hi |= (uint64_t)(d >> CHUNK) << k;
        }
    }
    return r;
}

static uint64_t key(const Walk *w, Planes x) {
    if (w->p == 2)
        return x.lo;
    uint64_t v = 0;
    for (int k = w->top; k >= 0; k -= CHUNK)
        v = v * CHUNK_SPACE + w->to_key[((x.lo >> k) & CHUNK_MASK) | ((x.hi >> k) & CHUNK_MASK) << CHUNK];
    return v;
}

static Planes padd(const Walk *w, Planes a, Planes b) {
    if (w->p == 2)
        return (Planes){a.lo ^ b.lo, 0};
    uint64_t az = ~(a.lo | a.hi), bz = ~(b.lo | b.hi);
    return (Planes){(a.lo & bz) | (az & b.lo) | (a.hi & b.hi),
                    (a.hi & bz) | (az & b.hi) | (a.lo & b.lo)};
}

static Planes neg(const Walk *w, Planes a) {
    return w->p == 2 ? a : (Planes){a.hi, a.lo};
}

static uint64_t fadd(const Walk *w, uint64_t a, uint64_t b) {
    return w->p == 2 ? a ^ b : key(w, padd(w, planes(w, a), planes(w, b)));
}

static uint64_t fsub(const Walk *w, uint64_t a, uint64_t b) {
    return w->p == 2 ? a ^ b : key(w, padd(w, planes(w, a), neg(w, planes(w, b))));
}

/* Add x to the target-layout accumulator's word k. */
static void acc_add(Walk *w, int k, Planes x) {
    Planes s = padd(w, (Planes){w->acc[k], w->p == 3 ? w->acc[w->W + k] : 0}, x);
    w->acc[k] = s.lo;
    if (w->p == 3)
        w->acc[w->W + k] = s.hi;
}

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

/* -- state ------------------------------------------------------------------ */

/* (Re)allocate the per-term arrays for cap terms, keeping their contents. */
static int reserve(Walk *w, int64_t cap) {
    if (cap > INT32_MAX || (uint64_t)cap > SIZE_MAX / (2 * sizeof(uint64_t)))
        return 0;
    void *p;
#define RESIZE(a, count) \
    if (!(p = realloc((a), (size_t)(count) * sizeof *(a)))) \
        return 0; \
    (a) = p
    for (int s = 0; s < 3; s++) {
        RESIZE(w->fac[s], cap);
        RESIZE(w->svals[s], cap);
        RESIZE(w->sidx[s], cap);
    }
    RESIZE(w->forb, 2 * cap);
    RESIZE(w->dirty, cap);
#undef RESIZE
    w->cap = (int)cap;
    return 1;
}

static void release(Walk *w) {
    for (int s = 0; s < 3; s++) {
        free(w->fac[s]);
        free(w->svals[s]);
        free(w->sidx[s]);
    }
    free(w->forb);
    free(w->dirty);
    free(w->acc);
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

/* Bounds [*lo, *hi) of the pairs of value val around position pos of slot s. */
static void group_bounds(const Walk *w, int s, int pos, uint64_t val, int *lo, int *hi) {
    const uint64_t *vals = w->svals[s];
    int a = pos, b = pos;
    while (a > 0 && vals[a - 1] == val)
        a--;
    while (b < w->live[s] && vals[b] == val)
        b++;
    *lo = a, *hi = b;
}

/* A pair joining a group of m raises the slot's candidate count by
 * 2(m+1)m - 2m(m-1) = 4m; one leaving a group of m lowers it by 4(m-1). */
static void ins_pair(Walk *w, int s, uint64_t val, int idx) {
    int pos = pair_pos(w, s, val, idx), lo, hi;
    group_bounds(w, s, pos, val, &lo, &hi);
    w->cand[s] += 4 * (int64_t)(hi - lo);
    int tail = w->live[s] - pos;
    memmove(w->svals[s] + pos + 1, w->svals[s] + pos, tail * sizeof(uint64_t));
    memmove(w->sidx[s] + pos + 1, w->sidx[s] + pos, tail * sizeof(int32_t));
    w->svals[s][pos] = val;
    w->sidx[s][pos] = idx;
    w->live[s]++;
}

static void del_pair(Walk *w, int s, uint64_t val, int idx) {
    int pos = pair_pos(w, s, val, idx), lo, hi;
    group_bounds(w, s, pos, val, &lo, &hi);
    w->cand[s] -= 4 * (int64_t)(hi - lo - 1);
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
    int lo[3], hi[3], best = -1;
    for (int s = 0; s < 3; s++) { /* t's group in each slot */
        uint64_t v = w->fac[s][t];
        group_bounds(w, s, pair_pos(w, s, v, t), v, &lo[s], &hi[s]);
    }
    for (int p = 0; p < 3; p++) {
        int sa = pairs[p][0], sb = pairs[p][1];
        int a0 = lo[sa], a1 = hi[sa], b0 = lo[sb], b1 = hi[sb];
        if (a1 - a0 < 2 || b1 - b0 < 2)
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
        uint64_t merged = fadd(w, w->fac[o][a], w->fac[o][b]);
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
    return w->cand[0] + w->cand[1] + w->cand[2];
}

static int apply_flip(Walk *w, int i, int j, int s, int o) {
    static const int other[3][2] = {{1, 2}, {0, 2}, {0, 1}};
    int oa = other[s][o], ob = other[s][1 - o];
    uint64_t new_i = fadd(w, w->fac[oa][i], w->fac[oa][j]);
    uint64_t new_j = fsub(w, w->fac[ob][j], w->fac[ob][i]);
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
        if (k >= w->cand[s]) {
            k -= w->cand[s];
            continue;
        }
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
        uint64_t cand = below(w, w->space); /* a draw is a factor's key */
        if (cand != 0 && cand != a)
            a1 = cand;
    }
    if (a1 == 0) {
        *plus_left = 0;
        return 0;
    }
    if (w->T >= w->cap && !reserve(w, 2 * (int64_t)w->cap)) {
        w->status = WALK_NO_MEMORY;
        return 0;
    }
    set_factor(w, s, t, a1);
    unforbid(w, t);
    int new_idx = w->T;
    for (int sl = 0; sl < 3; sl++) {
        uint64_t v = sl == s ? fsub(w, a, a1) : w->fac[sl][t];
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
    memset(w->acc, 0, (size_t)w->nplanes * w->W * sizeof(uint64_t));
    for (int t = 0; t < w->T; t++) {
        Planes u = planes(w, w->fac[0][t]), v = planes(w, w->fac[1][t]);
        Planes x = planes(w, w->fac[2][t]);
        for (int abit = 0; abit < n2; abit++) {
            if (!(((u.lo | u.hi) >> abit) & 1))
                continue;
            for (int bbit = 0; bbit < n2; bbit++) {
                if (!(((v.lo | v.hi) >> bbit) & 1))
                    continue;
                /* u_a * v_b is 2 when exactly one of them is 2 */
                Planes c = (((u.hi >> abit) ^ (v.hi >> bbit)) & 1) ? neg(w, x) : x;
                int base = (abit * n2 + bbit) * n2, lo = base >> 6, sh = base & 63;
                acc_add(w, lo, (Planes){c.lo << sh, c.hi << sh});
                if (sh + n2 > 64)
                    acc_add(w, lo + 1, (Planes){c.lo >> (64 - sh), c.hi >> (64 - sh)});
            }
        }
    }
    return memcmp(w->acc, w->target, (size_t)w->nplanes * w->W * sizeof(uint64_t)) == 0;
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

/* One walk over F_p, p = 2 or 3; see mmrank.flipgraph.engine for the contract.
 *
 * In: p and n (1..7 over F2, 1..6 over F3), n_terms start key triples in
 * terms[3 * n_terms], the target tensor as n_words = planes *
 * ceil(n**6 / 64) little-endian words (one plane over F2; over F3 the
 * plane of coefficients equal to 1, then the plane of those equal to 2),
 * the seed and limits (target_rank -1 means none).  term_cap, at least
 * n_terms, is the first capacity of the state, which doubles whenever a
 * plus move outgrows it.
 *
 * Out: best holds n_terms triples (the best rank never exceeds the start
 * rank).  On WALK_OK, *final points to the final triples in a buffer the
 * caller frees with mmrank_free; otherwise it is NULL.  trace, unless
 * NULL, holds trace_cap records of 5 fields, and max_steps + n_terms + P
 * records always suffice, with P = min(plus_budget, max_steps) (each
 * flip or plus move is a step; each reduction removes a term, and only
 * plus moves add one).  counts[0..4] receive the best rank, the steps
 * taken, the final term count, the trace length and the final capacity.
 *
 * Returns WALK_OK, WALK_UNSOUND when the state stopped expanding to the
 * target, WALK_BAD_ARGS for invalid input or a full trace buffer, and
 * WALK_NO_MEMORY. */
int mmrank_walk(int32_t p, int32_t n, const uint64_t *terms, int64_t n_terms,
                const uint64_t *target, int64_t n_words, uint64_t seed,
                int64_t max_steps, int64_t plus_budget, int64_t patience,
                int64_t verify_every, int64_t target_rank, int64_t term_cap,
                uint64_t *best, uint64_t **final, int32_t *trace,
                int64_t trace_cap, int64_t *counts) {
    *final = NULL;
    int nplanes = p == 3 ? 2 : 1;
    if ((p != 2 && p != 3) || n < 1 || n > (p == 2 ? 7 : 6) || max_steps < 1 || n_terms < 0
        || term_cap < n_terms || plus_budget < 0 || patience < 0 || verify_every < 0
        || n_words != nplanes * (((int64_t)n * n * n * n * n * n + 63) / 64))
        return WALK_BAD_ARGS;
    Walk *w = calloc(1, sizeof *w); /* too big for the stack with its F3 tables */
    if (!w)
        return WALK_NO_MEMORY;
    w->p = p;
    w->nplanes = nplanes;
    w->n2 = n * n;
    w->top = (w->n2 - 1) / CHUNK * CHUNK;
    w->space = 1;
    for (int i = 0; i < w->n2; i++)
        w->space *= (uint64_t)p;
    w->W = (int)(n_words / nplanes);
    w->target = target;
    w->best = best;
    w->best_rank = -1;
    w->trace = trace;
    w->trace_cap = trace_cap;
    int status = WALK_BAD_ARGS;
    for (int64_t t = 0; t < 3 * n_terms; t++)
        if (terms[t] >= w->space)
            goto done;
    status = WALK_NO_MEMORY;
    if (!(w->acc = malloc(n_words * sizeof(uint64_t))) || !reserve(w, term_cap > 0 ? term_cap : 1))
        goto done;
    if (p == 3)
        init_f3(w);

    seed_rng(w, seed);
    for (int64_t t = 0; t < n_terms; t++) {
        const uint64_t *f = terms + 3 * t;
        if (f[0] && f[1] && f[2]) {
            for (int s = 0; s < 3; s++)
                w->fac[s][w->T] = f[s];
            w->T++;
        }
    }
    for (int s = 0; s < 3; s++)
        for (int t = 0; t < w->T; t++)
            ins_pair(w, s, w->fac[s][t], t);

    int64_t steps = 0;
    status = run(w, max_steps, plus_budget, patience, verify_every, target_rank, &steps);
    if (status == WALK_OK && !(*final = malloc(3 * (size_t)(w->T > 0 ? w->T : 1) * sizeof(uint64_t))))
        status = WALK_NO_MEMORY;
    if (*final)
        for (int t = 0; t < w->T; t++)
            for (int s = 0; s < 3; s++)
                (*final)[3 * t + s] = w->fac[s][t];
    counts[0] = w->best_rank, counts[1] = steps, counts[2] = w->T, counts[3] = w->trace_n;
    counts[4] = w->cap;
done:
    release(w);
    free(w);
    return status;
}

void mmrank_free(void *buf) { free(buf); }
