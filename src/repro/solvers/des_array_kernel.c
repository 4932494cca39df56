/*
 * Compiled drain loop of the array DES engine (trace off, fault free,
 * non-unified, no watchdog).
 *
 * This file is the C form of the token drain in des_array.py and nothing
 * more: the tables it walks (CSC structure, per-warp gather/solve costs,
 * per-edge update increments, notify delays, spawn tokens, link rows and
 * wire times, resource capacities, the sorted dispatch front) are built
 * once in Python, and every protocol constant arrives from
 * repro.engine.protocol as a -D define passed by the loader
 * (des_array_kernel.py).  The source declares none of them.
 *
 * Bit-identity with the Python drain rests on the same two invariants
 * as des_array.py: events run in (time, seq) order, and every float is
 * produced by the same chain of binary64 operations (build with
 * -ffp-contract=off, no -ffast-math).
 *
 * Calendar: a binary heap keyed (time, seq) holds every event scheduled
 * for a later time; the sorted initial dispatch front is merged in as a
 * pre-sorted stream whose sequence numbers precede all runtime pushes;
 * pushes at t2 <= now go to a FIFO.  At each time the due heap/front
 * entries drain first, then the FIFO (the Python drain's bucket order).
 *
 * Warp-slot and link queues are intrusive singly linked lists: a
 * component waits in at most one warp queue and an edge in at most one
 * link queue at a time, so one "next" slot per component and per edge
 * suffices.  The kernel keeps no global state.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if !defined(COMP_ACQUIRE) || !defined(COMP_DISPATCH) ||                    \
    !defined(COMP_GATHER) || !defined(COMP_SOLVE) || !defined(COMP_POST) ||  \
    !defined(COMP_RELEASE) || !defined(COMP_DEAD) || !defined(COMP_SHIFT) || \
    !defined(XFER_CLAIM) || !defined(XFER_WIRE) || !defined(XFER_RETIRE) ||  \
    !defined(XFER_SHIFT)
#error "protocol constants must be passed as -D defines (see des_array_kernel.py)"
#endif

/* Return codes. */
enum { DRAIN_OK = 0, DRAIN_BUDGET = 1, DRAIN_NOMEM = 2 };

/* Counter slots, in the order des_array_kernel.COUNTER_KINDS names them. */
enum { C_DISPATCH, C_SOLVE, C_RELEASE, C_XFER_BEGIN, C_XFER_END, C_STALE, C_N };

struct drain_args {
    int64_t n, nnz, n_res;
    int64_t local_base, xfer_base;
    int64_t wake_at, max_events;
    double t_disp;
    const int64_t *indptr, *indices, *gpu_of, *spawn, *elink, *cap;
    const double *data, *b, *gather, *solve, *inc, *dl, *ewire;
    const int64_t *front_code;
    const double *front_time;
    int64_t *remaining;   /* in/out: unmet dependency counts */
    double *x;            /* out */
    uint8_t *parked;      /* out: parked on the readiness flag */
    int64_t *qlen;        /* out: waiters per resource row */
    int64_t *counters;    /* out: C_N trace counters */
    double now;           /* out */
    int64_t events;       /* out */
};

typedef struct {
    double t;
    int64_t seq;
    int64_t code;
} ev_t;

/* Per-component hot state, packed so an update delivery touches one
 * cache line. */
typedef struct {
    double left_sum;
    int64_t remaining;
} comp_t;

typedef struct {
    ev_t *heap;
    int64_t hn, hcap, seq;
    int64_t *fifo;
    int64_t fh, ft, fcap;
} calendar_t;

static inline int ev_less(const ev_t *a, const ev_t *b)
{
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

static int heap_push(calendar_t *c, double t, int64_t code)
{
    if (c->hn == c->hcap) {
        int64_t ncap = c->hcap ? 2 * c->hcap : 1024;
        ev_t *nh = realloc(c->heap, (size_t)ncap * sizeof(ev_t));
        if (!nh)
            return -1;
        c->heap = nh;
        c->hcap = ncap;
    }
    ev_t ev = {t, c->seq++, code};
    int64_t k = c->hn++;
    while (k > 0) {
        int64_t p = (k - 1) >> 1;
        if (!ev_less(&ev, &c->heap[p]))
            break;
        c->heap[k] = c->heap[p];
        k = p;
    }
    c->heap[k] = ev;
    return 0;
}

static int64_t heap_pop(calendar_t *c)
{
    int64_t code = c->heap[0].code;
    ev_t last = c->heap[--c->hn];
    int64_t k = 0, n = c->hn;
    for (;;) {
        int64_t l = 2 * k + 1;
        if (l >= n)
            break;
        if (l + 1 < n && ev_less(&c->heap[l + 1], &c->heap[l]))
            l++;
        if (!ev_less(&c->heap[l], &last))
            break;
        c->heap[k] = c->heap[l];
        k = l;
    }
    c->heap[k] = last;
    return code;
}

static int fifo_push(calendar_t *c, int64_t code)
{
    if (c->ft == c->fcap) {
        int64_t ncap = c->fcap ? 2 * c->fcap : 1024;
        int64_t *nf = realloc(c->fifo, (size_t)ncap * sizeof(int64_t));
        if (!nf)
            return -1;
        c->fifo = nf;
        c->fcap = ncap;
    }
    c->fifo[c->ft++] = code;
    return 0;
}

/* Schedule `code` at t2: the heap when the clock must advance, else the
 * FIFO of the time being drained (the Python drain's `t2 > now` test). */
#define SCHEDULE(t2, code)                                                  \
    do {                                                                    \
        double t2_ = (t2);                                                  \
        if ((t2_ > now ? heap_push(&cal, t2_, (code))                       \
                       : fifo_push(&cal, (code))) != 0)                     \
            goto nomem;                                                     \
    } while (0)

#define IMMEDIATE(code)                                                     \
    do {                                                                    \
        if (fifo_push(&cal, (code)) != 0)                                   \
            goto nomem;                                                     \
    } while (0)

/* Intrusive FIFO queues per resource row; `next` is the per-component
 * (warp rows) or per-edge (link rows) link slot. */
#define Q_PUSH(r, id, next)                                                 \
    do {                                                                    \
        (next)[id] = -1;                                                    \
        if (qlen[r]++)                                                      \
            (next)[qtail[r]] = (id);                                        \
        else                                                                \
            qhead[r] = (id);                                                \
        qtail[r] = (id);                                                    \
    } while (0)

int des_drain(struct drain_args *a)
{
    const int64_t n = a->n, nnz = a->nnz, n_res = a->n_res;
    const int64_t local_base = a->local_base, xfer_base = a->xfer_base;
    const int64_t wake_at = a->wake_at, max_events = a->max_events;
    const double t_disp = a->t_disp;
    const int64_t *indptr = a->indptr, *indices = a->indices;
    const int64_t *gpu_of = a->gpu_of, *spawn = a->spawn, *elink = a->elink;
    const int64_t *cap = a->cap;
    const double *data = a->data, *b = a->b, *gather = a->gather;
    const double *solve = a->solve, *inc = a->inc, *dl = a->dl;
    const double *ewire = a->ewire;
    const int64_t *front_code = a->front_code;
    const double *front_time = a->front_time;
    int64_t *remaining = a->remaining, *qlen = a->qlen;
    double *x = a->x;
    uint8_t *parked = a->parked;
    const int64_t comp_mask = ((int64_t)1 << COMP_SHIFT) - 1;
    const int64_t xfer_mask = ((int64_t)1 << XFER_SHIFT) - 1;

    int64_t counters[C_N] = {0};
    int64_t nevents = 0, front = 0;
    double now = 0.0;
    int status = DRAIN_OK;
    calendar_t cal = {0};

    comp_t *comp = malloc((size_t)(n ? n : 1) * sizeof(comp_t));
    double *contrib = malloc((size_t)(nnz ? nnz : 1) * sizeof(double));
    double *delay = malloc((size_t)(nnz ? nnz : 1) * sizeof(double));
    int64_t *next_c = malloc((size_t)(n ? n : 1) * sizeof(int64_t));
    int64_t *next_e = malloc((size_t)(nnz ? nnz : 1) * sizeof(int64_t));
    int64_t *used = calloc((size_t)(n_res ? n_res : 1), sizeof(int64_t));
    int64_t *qhead = malloc((size_t)(n_res ? n_res : 1) * sizeof(int64_t));
    int64_t *qtail = malloc((size_t)(n_res ? n_res : 1) * sizeof(int64_t));
    if (!comp || !contrib || !delay || !next_c || !next_e || !used ||
        !qhead || !qtail)
        goto nomem;
    memset(qlen, 0, (size_t)n_res * sizeof(int64_t));
    memset(parked, 0, (size_t)n);
    for (int64_t i = 0; i < n; i++) {
        comp[i].left_sum = 0.0;
        comp[i].remaining = remaining[i];
    }

    for (;;) {
        int64_t code;
        /* Next event: calendar entries due now in (time, seq) order (the
         * front was scheduled before any runtime push, so it goes first),
         * then the FIFO; else advance the clock. */
        if (front < n && front_time[front] == now) {
            code = front_code[front++];
        } else if (cal.hn && cal.heap[0].t == now) {
            code = heap_pop(&cal);
        } else if (cal.fh < cal.ft) {
            code = cal.fifo[cal.fh++];
        } else {
            cal.fh = cal.ft = 0;
            double t;
            if (front < n && (!cal.hn || front_time[front] <= cal.heap[0].t))
                t = front_time[front];
            else if (cal.hn)
                t = cal.heap[0].t;
            else
                break;
            if (nevents >= max_events && t > now) {
                status = DRAIN_BUDGET;
                goto out;
            }
            now = t;
            continue;
        }
        nevents++;

        if (code < 0) {
            /* update delivery (hottest) */
            int64_t e = -1 - code, dst = indices[e];
            comp[dst].left_sum += contrib[e];
            int64_t rem = --comp[dst].remaining;
            if (rem == wake_at && parked[dst]) {
                parked[dst] = 0;
                IMMEDIATE((dst << COMP_SHIFT) | COMP_GATHER);
            }
            continue;
        }
        if (code >= local_base) {
            if (code < xfer_base) {
                /* local edge: one delay hop */
                int64_t e = code - local_base;
                SCHEDULE(now + delay[e], -1 - e);
                continue;
            }
            /* cross-GPU transfer steps */
            int64_t c = code - xfer_base;
            int64_t st = c & xfer_mask, e = c >> XFER_SHIFT;
            int64_t link = elink[e];
            if (st == XFER_RETIRE) {
                counters[C_XFER_END]++;
                if (qlen[link]) {
                    int64_t e2 = qhead[link];
                    qhead[link] = next_e[e2];
                    qlen[link]--;
                    IMMEDIATE(xfer_base + ((e2 << XFER_SHIFT) | XFER_WIRE));
                } else {
                    used[link]--;
                }
                SCHEDULE(now + delay[e], -1 - e);
                continue;
            }
            if (st == XFER_CLAIM) {
                if (qlen[link] || used[link] >= cap[link]) {
                    Q_PUSH(link, e, next_e);  /* park; resume at WIRE */
                    continue;
                }
                used[link]++;
            }
            /* XFER_WIRE (granted inline above, or woken parked) */
            counters[C_XFER_BEGIN]++;
            SCHEDULE(now + ewire[e],
                     xfer_base + ((e << XFER_SHIFT) | XFER_RETIRE));
            continue;
        }

        /* component */
        int64_t i = code >> COMP_SHIFT, st = code & comp_mask;
        int64_t g = gpu_of[i];
        switch (st) {
        case COMP_ACQUIRE:
            if (qlen[g] || used[g] >= cap[g]) {
                Q_PUSH(g, i, next_c);  /* park; granted at DISPATCH */
                break;
            }
            used[g]++;
            /* fall through */
        case COMP_DISPATCH:
            counters[C_DISPATCH]++;
            SCHEDULE(now + t_disp, (i << COMP_SHIFT) | COMP_GATHER);
            break;
        case COMP_GATHER:
            if (comp[i].remaining > wake_at) {
                parked[i] = 1;  /* the closing delivery re-schedules */
                break;
            }
            if (wake_at && comp[i].remaining > 0)
                counters[C_STALE]++;
            if (gather[i] > 0.0) {
                SCHEDULE(now + gather[i], (i << COMP_SHIFT) | COMP_SOLVE);
                break;
            }
            /* zero gather: solve in this event */
            /* fall through */
        case COMP_SOLVE:
            SCHEDULE(now + solve[i], (i << COMP_SHIFT) | COMP_POST);
            break;
        case COMP_POST: {
            int64_t lo = indptr[i], hi = indptr[i + 1];
            double xi = (b[i] - comp[i].left_sum) / data[lo];
            double uc = 0.0;
            x[i] = xi;
            counters[C_SOLVE]++;
            for (int64_t e = lo + 1; e < hi; e++) {
                uc += inc[e];
                contrib[e] = data[e] * xi;
                delay[e] = uc + dl[e];
            }
            /* the fan-out's start hops land now, in edge order */
            for (int64_t e = lo + 1; e < hi; e++)
                IMMEDIATE(spawn[e]);
            if (uc > 0.0) {
                SCHEDULE(now + uc, (i << COMP_SHIFT) | COMP_RELEASE);
                break;
            }
            /* zero update cost: retire now */
        }
            /* fall through */
        case COMP_RELEASE:
            counters[C_RELEASE]++;
            if (qlen[g]) {
                int64_t j = qhead[g];
                qhead[g] = next_c[j];
                qlen[g]--;
                IMMEDIATE((j << COMP_SHIFT) | COMP_DISPATCH);
            } else {
                used[g]--;
            }
            break;
        default: /* COMP_DEAD: tombstones never occur without faults */
            break;
        }
    }
    for (int64_t i = 0; i < n; i++)
        remaining[i] = comp[i].remaining;
    goto out;

nomem:
    status = DRAIN_NOMEM;
out:
    memcpy(a->counters, counters, sizeof(counters));
    a->now = now;
    a->events = nevents;
    free(cal.heap);
    free(cal.fifo);
    free(comp);
    free(contrib);
    free(delay);
    free(next_c);
    free(next_e);
    free(used);
    free(qhead);
    free(qtail);
    return status;
}
