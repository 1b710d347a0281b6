/* Compiled integer kernel for configuration sweeps.
 *
 * This is an independent reimplementation of analysis.analyze_config for
 * integer point configurations, written against the same mathematical
 * contract rather than the Python code, with the same suite names in the
 * same order. troplines.kernel routes eligible configurations here and
 * equivalence with the pure path is enforced by the test suite.
 *
 * Per configuration:
 *   - stable points and candidate vertices come from closed-form ray
 *     crossings of each pair of lines;
 *   - each candidate's argmax counts over the lines (c, s_a, s_b, s_c and
 *     the two shift counts) classify it and fix its dual cell, whose
 *     boundary is walked in closed form;
 *   - each cell is rasterized into one owner grid of the n^2 unit
 *     triangles of n * Delta_2, which checks the tiling, and the grid's
 *     edge adjacency gives a local regularity check against the lift and
 *     the faces each triangle determines.
 * The candidate scan and the lift take O(n^3) steps; the subdivision
 * checks are near-linear in the n^2 unit triangles.
 *
 * Everything is 64-bit integer arithmetic. Coordinates must lie within
 * +/- 2**20 and there are at most MAXN = 128 = 2**7 points (both checked on
 * entry), which bounds every intermediate well below 2**63:
 *   - ray crossings lie within 2**20 + 2**22 < OFF = 2**23 of the origin, so
 *     a candidate key is below 2**24 * SHIFT = 2**49;
 *   - the lift is a sum of at most n coordinates, |LIFT| <= 2**27;
 *   - regularity runs on corners inside n * Delta_2, so corner differences
 *     are at most 2**7 and det <= 2**15; beta and gamma are at most
 *     2 * 2**28 * 2**7 = 2**36, alpha at most 2**42 + 2 * 2**43 < 2**45;
 *   - the largest terms, FIT <= 2**45 + 2 * 2**43 < 2**46 and
 *     det * LIFT <= 2**42, keep 17 bits of headroom.
 * Python objects appear only at the boundary: the points are converted once
 * on entry. analyze_ints takes one configuration, with scratch memory
 * allocated for the call and sized from n, and builds its record dict once
 * at the end. analyze_chunk takes a sweep's chunk of configurations, with
 * one scratch allocation for the chunk sized from its largest n; it writes
 * each configuration's JSONL line straight into one text buffer and its
 * excess into one bytes object, and makes Python objects only for the
 * records that have violations.
 *
 * Build: python3 setup.py build_ext --inplace, or directly with
 *   cc -O2 -shared -fPIC -I<python include dir> _fastsweep.c -o _fastsweep<EXT_SUFFIX>
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdarg.h>
#include <stdlib.h>

typedef long long i64;

enum {
    MAXN = 128,
    MAXV = 8,          /* a subdivision cell has at most 6 corners */
};

#define NEG (-((i64)1 << 50))
#define LIMIT ((i64)1 << 20)
#define OFF ((i64)1 << 23)
#define SHIFT ((i64)1 << 25)
#define KEY(x, y) (((x) + OFF) * SHIFT + ((y) + OFF))
#define KEY_X(key) ((key) / SHIFT - OFF)
#define KEY_Y(key) ((key) % SHIFT - OFF)

/* ray directions in the fixed order W, S, NE */
static const i64 DIRX[3] = {-1, 0, 1};
static const i64 DIRY[3] = {0, -1, 1};

/* A dual cell's counterclockwise boundary from its lex-min corner: SE s_c,
 * E s_a + c, N s_b, NW s_c + c, W s_a and S s_b + c. */
static const i64 STEPX[6] = {1, 1, 0, -1, -1, 0};
static const i64 STEPY[6] = {-1, 0, 1, 1, 0, -1};

/* A unit triangle of n * Delta_2: (i, j, 0) is conv{(i,j), (i+1,j), (i,j+1)}
 * and (i, j, 1) is conv{(i+1,j), (i,j+1), (i+1,j+1)}; its owner sits at
 * owner[OWNER(i, j, down)]. Every edge between two of them joins an upward
 * triangle (i, j, 0) to the downward one at (i + NBR_DI[e], j + NBR_DJ[e])
 * across its bottom, left or diagonal edge e, whose vertex opposite that
 * edge is (i + OPP_DI[e], j + OPP_DJ[e]). */
#define OWNER(i, j, down) (2 * ((j) * n + (i)) + (down))
static const int NBR_DI[3] = {0, -1, 0};
static const int NBR_DJ[3] = {-1, 0, 0};
static const int OPP_DI[3] = {1, -1, 1};
static const int OPP_DJ[3] = {-1, 1, 1};

enum { CLS_TRI, CLS_PAR, CLS_HEX, CLS_NU4, CLS_NU5, CLS_NU6 };

typedef struct {
    int m;
    i64 vx[MAXV];
    i64 vy[MAXV];
    int cls;
    i64 dx;
    i64 dy;
    i64 area2;
    int bdry;
} Cell;

/* One analysis' scratch memory, carved from a single allocation sized from
 * n. There are at most n + 7 n(n-1)/2 candidate points: the vertices, then
 * for each pair at most six ray crossings and its stable point. Every cell
 * comes from a distinct candidate, so the cells and the per-cell arrays
 * take as many entries; the stable points take n(n-1)/2, the lift
 * (n + 1)^2 and the owner grid 2 n^2. Nothing is initialized here. */
typedef struct {
    void *block;
    i64 *candkey, *stabkey, *lift, *det, *alpha, *beta, *gamma;
    Cell *cells;
    int *slot_head, *slot_next, *union_flags, *adj_tri_count, *seen_by, *determined;
    int *owner;
} Scratch;

/* Carve s for n points; -1 with MemoryError set. Free s->block after. */
static int
_scratch_new(int n, Scratch *s)
{
    size_t pairs = (size_t)n * (n - 1) / 2, cand = n + 7 * pairs;
    size_t owner_slots = 2 * (size_t)n * n, lift_slots = (size_t)(n + 1) * (n + 1);
    /* widest alignment first, so each array starts aligned; the owner grid,
     * indexed by geometry, last, next to any allocator's guard bytes */
    size_t bytes = (cand + pairs + lift_slots + 4 * cand) * sizeof(i64) + cand * sizeof(Cell)
                   + (6 * cand + owner_slots) * sizeof(int);
    char *at = PyMem_Malloc(bytes);
    s->block = at;
    if (at == NULL) {
        PyErr_NoMemory();
        return -1;
    }
#define CARVE(field, count) (s->field = (void *)at, at += (count) * sizeof(*s->field))
    CARVE(candkey, cand);
    CARVE(stabkey, pairs);
    CARVE(lift, lift_slots);
    CARVE(det, cand);
    CARVE(alpha, cand);
    CARVE(beta, cand);
    CARVE(gamma, cand);
    CARVE(cells, cand);
    CARVE(slot_head, cand);
    CARVE(slot_next, cand);
    CARVE(union_flags, cand);
    CARVE(adj_tri_count, cand);
    CARVE(seen_by, cand);
    CARVE(determined, cand);
    CARVE(owner, owner_slots);
#undef CARVE
    return 0;
}

static int
_cmp_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a;
    i64 y = *(const i64 *)b;
    return (x > y) - (x < y);
}

static inline i64
_cross3(i64 ox, i64 oy, i64 ax, i64 ay, i64 bx, i64 by)
{
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox);
}

/* Argmax bitmask at q for the line with vertex v: bit0 = x term,
 * bit1 = y term, bit2 = constant term. */
static inline int
_argmask(i64 vx, i64 vy, i64 qx, i64 qy)
{
    i64 t1 = qx - vx;
    i64 t2 = qy - vy;
    i64 m = t1;
    if (t2 > m)
        m = t2;
    if (0 > m)
        m = 0;
    return (t1 == m) | ((t2 == m) << 1) | ((0 == m) << 2);
}

/* The corners of the cell with shape parameters (c, s_a, s_b, s_c) and
 * shift counts (only_x, only_y): the Minkowski sum of a unit triangle when
 * c = 1 and of unit H, V and D segments s_a, s_b and s_c times, shifted by
 * (only_x, only_y). Walked counterclockwise from the lex-min corner
 * (only_x, only_y + s_c), skipping steps of zero length; returns the
 * corner count. */
static int
_walk_cell(int c, int sa, int sb, int sc, int only_x, int only_y, i64 *ox, i64 *oy)
{
    const int length[6] = {sc, sa + c, sb, sc + c, sa, sb + c};
    i64 x = only_x, y = only_y + sc;
    int m = 0;
    for (int k = 0; k < 6; k++) {
        if (length[k] == 0)
            continue;
        ox[m] = x;
        oy[m] = y;
        m++;
        x += STEPX[k] * length[k];
        y += STEPY[k] * length[k];
    }
    return m;
}

/* Claim for cell k, which lies inside n * Delta_2, the unit triangles whose
 * centroids lie strictly inside it; the test runs in coordinates scaled by
 * 3, so it is exact. Returns a cell that already owned one of them, or -1. */
static int
_rasterize(const Cell *cell, int k, int n, int *owner)
{
    i64 xlo = cell->vx[0], xhi = xlo, ylo = cell->vy[0], yhi = ylo;
    for (int v = 1; v < cell->m; v++) {
        xlo = cell->vx[v] < xlo ? cell->vx[v] : xlo;
        xhi = cell->vx[v] > xhi ? cell->vx[v] : xhi;
        ylo = cell->vy[v] < ylo ? cell->vy[v] : ylo;
        yhi = cell->vy[v] > yhi ? cell->vy[v] : yhi;
    }
    for (i64 j = ylo; j < yhi; j++) {
        for (i64 i = xlo; i < xhi; i++) {
            for (int down = 0; down < 2; down++) {
                i64 cx = 3 * i + 1 + down, cy = 3 * j + 1 + down;
                int inside = 1;
                for (int v = 0; v < cell->m && inside; v++) {
                    int w = v + 1 == cell->m ? 0 : v + 1;
                    inside = _cross3(3 * cell->vx[v], 3 * cell->vy[v],
                                     3 * cell->vx[w], 3 * cell->vy[w], cx, cy) > 0;
                }
                if (!inside)
                    continue;
                int *slot = &owner[OWNER(i, j, down)];
                if (*slot >= 0)
                    return *slot;
                *slot = k;
            }
        }
    }
    return -1;
}

/* The base of the triangle in whose corner slot the parallelogram s would
 * sit, as in subdivision._corner_slot_base: the maximal corner of an H + V
 * rectangle; one below the corner of maximal x, then minimal y, of a V + D
 * one; one left of the unique corner of minimal x of an H + D one. 0 when
 * the edges are not two of those directions. */
static int
_corner_slot_base(const Cell *s, i64 *bx, i64 *by)
{
    int mask = 0, lo = 0, hi = 0;
    i64 ymax = s->vy[0];
    for (int i = 0; i < s->m; i++) {
        int j = i + 1 == s->m ? 0 : i + 1;
        i64 dx = s->vx[j] - s->vx[i], dy = s->vy[j] - s->vy[i];
        mask |= dy == 0 ? 1 : dx == 0 ? 2 : dx == -dy ? 4 : 8;
        if (s->vx[i] < s->vx[lo])
            lo = i;
        if (s->vx[i] > s->vx[hi] || (s->vx[i] == s->vx[hi] && s->vy[i] < s->vy[hi]))
            hi = i;
        if (s->vy[i] > ymax)
            ymax = s->vy[i];
    }
    if (mask == 3) {
        *bx = s->vx[hi];
        *by = ymax;
    } else if (mask == 6) {
        *bx = s->vx[hi];
        *by = s->vy[hi] - 1;
    } else if (mask == 5) {
        *bx = s->vx[lo] - 1;
        *by = s->vy[lo];
    } else {
        return 0;
    }
    return 1;
}

/* Transversal crossings between the 3 x 3 ray pairs of the lines with
 * vertices a and a + (dx, dy), written to (cx, cy); returns their count. */
static int
_ray_crossings(i64 ax, i64 ay, i64 dx, i64 dy, i64 *cx, i64 *cy)
{
    int hits = 0;
    for (int r1 = 0; r1 < 3; r1++) {
        for (int r2 = 0; r2 < 3; r2++) {
            i64 denom = DIRX[r1] * DIRY[r2] - DIRY[r1] * DIRX[r2];
            if (denom == 0)
                continue;
            i64 tn = dx * DIRY[r2] - dy * DIRX[r2];
            i64 sn = dx * DIRY[r1] - dy * DIRX[r1];
            if (denom < 0) {
                tn = -tn;
                sn = -sn;
            }
            if (tn < 0 || sn < 0)
                continue;
            cx[hits] = ax + DIRX[r1] * tn;
            cy[hits] = ay + DIRY[r1] * tn;
            hits++;
        }
    }
    return hits;
}

/* The ray crossings of lines i and j into (cx, cy), their count in *hits,
 * and the pair's stable point into (wx, wy): when the vertices lie on a
 * common ray axis, the vertex that lies on the other line, else the single
 * transversal crossing. -1 with an AssertionError set when a non-coaxial
 * pair does not cross exactly once. */
static int
_stable_point(const i64 *vx, const i64 *vy, int i, int j, i64 *cx, i64 *cy, int *hits,
              i64 *wx, i64 *wy)
{
    i64 dx = vx[j] - vx[i], dy = vy[j] - vy[i];
    *hits = _ray_crossings(vx[i], vy[i], dx, dy, cx, cy);
    if (dy == 0 || dx == 0 || dx == dy) {
        int first = dy == 0 ? dx > 0 : dx == 0 ? dy > 0 : dx < 0;
        *wx = first ? vx[i] : vx[j];
        *wy = first ? vy[i] : vy[j];
    } else if (*hits == 1) {
        *wx = cx[0];
        *wy = cy[0];
    } else {
        PyErr_Format(PyExc_AssertionError,
                     "non-coaxial pair %d,%d produced %d crossings", i, j, *hits);
        return -1;
    }
    return 0;
}

static int
_sort_unique(i64 *keys, int count)
{
    int unique = 0;
    qsort(keys, (size_t)count, sizeof(i64), _cmp_i64);
    for (int i = 0; i < count; i++)
        if (i == 0 || keys[i] != keys[i - 1])
            keys[unique++] = keys[i];
    return unique;
}

/* ---- the Python boundary ------------------------------------------------ */

/* Read a sequence of distinct integer pairs within the coordinate bound
 * into (px, py); the point count, or -1 with an exception set. */
static int
_read_points(PyObject *points, int min_n, const char *too_few, i64 *px, i64 *py)
{
    Py_ssize_t n = PyObject_Length(points);
    if (n < 0)
        return -1;
    if (n < min_n) {
        PyErr_SetString(PyExc_ValueError, too_few);
        return -1;
    }
    if (n > MAXN) {
        PyErr_Format(PyExc_ValueError, "kernel supports at most %d points, got %zd", MAXN, n);
        return -1;
    }
    /* a private tuple: __index__ may run Python code that edits the input */
    PyObject *seq = PySequence_Tuple(points);
    if (seq == NULL)
        return -1;
    if (PyTuple_GET_SIZE(seq) != n) {
        PyErr_SetString(PyExc_ValueError, "points changed size during the call");
        goto fail;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *point = PyTuple_GET_ITEM(seq, i);
        PyObject *coords[2];
        i64 xy[2];
        if (PyTuple_Check(point) && PyTuple_GET_SIZE(point) == 2) {
            coords[0] = PyTuple_GET_ITEM(point, 0);
            coords[1] = PyTuple_GET_ITEM(point, 1);
        } else if (PyList_Check(point) && PyList_GET_SIZE(point) == 2) {
            coords[0] = PyList_GET_ITEM(point, 0);
            coords[1] = PyList_GET_ITEM(point, 1);
        } else {
            PyErr_Format(PyExc_ValueError,
                         "point at index %zd is not a tuple or list of two coordinates", i);
            goto fail;
        }
        /* own the coordinates: a list point may be edited by __index__ */
        Py_INCREF(coords[0]);
        Py_INCREF(coords[1]);
        int overflow = 0, failed = 0;
        for (int c = 0; c < 2 && !failed; c++) {
            PyObject *index = PyNumber_Index(coords[c]);
            if (index == NULL) {
                failed = 1;
                break;
            }
            int over = 0;
            xy[c] = PyLong_AsLongLongAndOverflow(index, &over);
            Py_DECREF(index);
            failed = xy[c] == -1 && PyErr_Occurred();
            overflow |= over;
        }
        Py_DECREF(coords[0]);
        Py_DECREF(coords[1]);
        if (failed)
            goto fail;
        if (overflow || xy[0] > LIMIT || xy[0] < -LIMIT || xy[1] > LIMIT || xy[1] < -LIMIT) {
            PyErr_SetString(PyExc_ValueError, "kernel coordinate bound exceeded");
            goto fail;
        }
        px[i] = xy[0];
        py[i] = xy[1];
    }
    Py_DECREF(seq);
    for (int i = 0; i < n; i++)
        for (int j = i + 1; j < n; j++)
            if (px[i] == px[j] && py[i] == py[j]) {
                PyErr_Format(PyExc_ValueError, "duplicate point at index %d", j);
                return -1;
            }
    return (int)n;
fail:
    Py_DECREF(seq);
    return -1;
}

/* Append [suite, message] to violations; -1 with an exception set. */
static int
_violate(PyObject *violations, const char *suite, const char *format, ...)
{
    va_list va;
    va_start(va, format);
    PyObject *message = PyUnicode_FromFormatV(format, va);
    va_end(va);
    if (message == NULL)
        return -1;
    PyObject *entry = Py_BuildValue("[sN]", suite, message);
    if (entry == NULL)
        return -1;
    int rc = PyList_Append(violations, entry);
    Py_DECREF(entry);
    return rc;
}

#define VIOLATE(...) \
    do { \
        if (_violate(violations, __VA_ARGS__) < 0) \
            return -1; \
    } while (0)

#define COUNTS "Counts(n=%d, t=%d, triangles=%d, b=%d, k=%d, h=%d)"
#define COUNTS_ARGS n, t_count, triangles, b_faces, k_faces, h_faces

/* The near-pencil flag: False, True, or None when the cells do not tile */
enum { NEAR_NO, NEAR_YES, NEAR_UNTILED };

/* What analyze_ints returns besides the violations. */
typedef struct {
    int t, triangles, b, k, h;
    int near_pencil;
    int excess;
} Summary;

/* The lift of n * Delta_2: the coefficient table of the tropical product
 * of the n line polynomials, by dynamic programming over the points. After
 * point j, LIFT(ii, jj) for ii + jj <= j + 1 is the best of keeping the
 * value (constant term) or adding point j's x or y coordinate to the value
 * one step below; updated in place, high indices first. */
#define LIFT(x, y) lift[(x) * (n + 1) + (y)]
static void
_lift(int n, const i64 *px, const i64 *py, i64 *lift)
{
    LIFT(0, 0) = 0;
    for (int j = 0; j < n; j++) {
        for (int ii = j + 1; ii >= 0; ii--) {
            for (int jj = j + 1 - ii; jj >= 0; jj--) {
                i64 best = ii + jj <= j ? LIFT(ii, jj) : NEG;
                if (ii > 0 && LIFT(ii - 1, jj) + px[j] > best)
                    best = LIFT(ii - 1, jj) + px[j];
                if (jj > 0 && LIFT(ii, jj - 1) + py[j] > best)
                    best = LIFT(ii, jj - 1) + py[j];
                LIFT(ii, jj) = best;
            }
        }
    }
}

/* The regularity of the tiling against the lift, read off the owner grid:
 * each cell's affine fit through its first three corners must equal the
 * lift at the corners of every unit triangle it owns, and across every edge
 * between two cells the fit of the upward triangle's owner must dominate
 * the lift at the opposite vertex of the downward one. On a tiling this
 * local test is the global one (see subdivision.check_regularity_detailed).
 * Stops at the first violation; -1 with an exception set. */
static int
_regularity(const Scratch *s, int ncells, int n, const i64 *px, const i64 *py,
            PyObject *violations)
{
    const Cell *cells = s->cells;
    const int *owner = s->owner;
    i64 *lift = s->lift, *det = s->det, *alpha = s->alpha, *beta = s->beta, *gamma = s->gamma;
    int i, j, k;
#define FIT(k, x, y) (alpha[k] + beta[k] * (x) + gamma[k] * (y))
    _lift(n, px, py, lift);
    for (k = 0; k < ncells; k++) {
        const Cell *cell = &cells[k];
        det[k] = _cross3(cell->vx[0], cell->vy[0], cell->vx[1], cell->vy[1],
                         cell->vx[2], cell->vy[2]);
        if (det[k] <= 0) {
            VIOLATE("regularity", "cell at (%lld, %lld) is not counterclockwise",
                    cell->dx, cell->dy);
            return 0;
        }
        i64 h0 = LIFT(cell->vx[0], cell->vy[0]);
        i64 h1 = LIFT(cell->vx[1], cell->vy[1]);
        i64 h2 = LIFT(cell->vx[2], cell->vy[2]);
        beta[k] = (h1 - h0) * (cell->vy[2] - cell->vy[0]) - (h2 - h0) * (cell->vy[1] - cell->vy[0]);
        gamma[k] = (cell->vx[1] - cell->vx[0]) * (h2 - h0) - (cell->vx[2] - cell->vx[0]) * (h1 - h0);
        alpha[k] = det[k] * h0 - beta[k] * cell->vx[0] - gamma[k] * cell->vy[0];
    }
    for (j = 0; j < n; j++) {
        for (i = 0; i + j < n; i++) {
            for (int down = 0; down < 2 && i + j + down < n; down++) {
                k = owner[OWNER(i, j, down)];
                const int cx[3] = {i + 1, i, i + down}, cy[3] = {j, j + 1, j + down};
                for (int v = 0; v < 3; v++) {
                    if (FIT(k, cx[v], cy[v]) != det[k] * LIFT(cx[v], cy[v])) {
                        VIOLATE("regularity",
                                "cell at (%lld, %lld): lift and affine fit disagree "
                                "at lattice point (%d, %d)", cells[k].dx, cells[k].dy,
                                cx[v], cy[v]);
                        return 0;
                    }
                }
            }
            k = owner[OWNER(i, j, 0)];
            for (int e = 0; e < 3; e++) {
                int ni = i + NBR_DI[e], nj = j + NBR_DJ[e];
                if (ni < 0 || nj < 0 || ni + nj > n - 2 || owner[OWNER(ni, nj, 1)] == k)
                    continue;
                int ox = i + OPP_DI[e], oy = j + OPP_DJ[e];
                if (FIT(k, ox, oy) < det[k] * LIFT(ox, oy)) {
                    VIOLATE("regularity",
                            "cell at (%lld, %lld): affine fit fails to dominate the lift "
                            "at (%d, %d)", cells[k].dx, cells[k].dy, ox, oy);
                    return 0;
                }
            }
        }
    }
#undef FIT
#undef LIFT
    return 0;
}

/* The suites that need a tiling: the tiling itself, cell edge directions,
 * regularity against the lift, the near-pencil flag and the determined
 * faces. Returns the near-pencil flag, NEAR_UNTILED when the cells do not
 * tile n * Delta_2, or -1 with an exception set. */
static int
_tiled_suites(const Scratch *s, int ncells, int n, int k_faces, const i64 *px,
              const i64 *py, PyObject *violations)
{
    const Cell *cells = s->cells;
    int *owner = s->owner, *slot_head = s->slot_head, *slot_next = s->slot_next;
    int *union_flags = s->union_flags, *adj_tri_count = s->adj_tri_count;
    int *seen_by = s->seen_by, *determined = s->determined;
    int i, j, e, k;
    i64 dx, dy;

    /* --- tiling ---------------------------------------------------------- */
    i64 area_total = 0;
    for (i = 0; i < ncells; i++) {
        const Cell *cell = &cells[i];
        for (j = 0; j < cell->m; j++) {
            if (cell->vx[j] < 0 || cell->vy[j] < 0 || cell->vx[j] + cell->vy[j] > n) {
                VIOLATE("tiling", "cell at (%lld, %lld) leaves %d*Delta_2 at (%lld,%lld)",
                        cell->dx, cell->dy, n, cell->vx[j], cell->vy[j]);
                return NEAR_UNTILED;
            }
        }
        area_total += cell->area2;
    }
    if (area_total != (i64)n * n) {
        VIOLATE("tiling", "cell areas sum to %lld/2, expected %d/2 for n=%d",
                area_total, n * n, n);
        return NEAR_UNTILED;
    }
    for (i = 0; i < 2 * n * n; i++)
        owner[i] = -1;
    for (k = 0; k < ncells; k++) {
        int first = _rasterize(&cells[k], k, n, owner);
        if (first >= 0) {
            VIOLATE("tiling", "cells at (%lld, %lld) and (%lld, %lld) overlap",
                    cells[first].dx, cells[first].dy, cells[k].dx, cells[k].dy);
            return NEAR_UNTILED;
        }
    }
    for (j = 0; j < n; j++) {
        for (i = 0; i + j < n; i++) {
            for (int down = 0; down < 2 && i + j + down < n; down++) {
                if (owner[OWNER(i, j, down)] < 0) {
                    VIOLATE("tiling", "no cell covers unit triangle (%d, %d, %d)", i, j, down);
                    return NEAR_UNTILED;
                }
            }
        }
    }

    /* --- cell edge directions ------------------------------------------- */
    for (i = 0; i < ncells; i++) {
        const Cell *cell = &cells[i];
        for (j = 0; j < cell->m; j++) {
            e = j + 1 == cell->m ? 0 : j + 1;
            dx = cell->vx[e] - cell->vx[j];
            dy = cell->vy[e] - cell->vy[j];
            if (!(dx == 0 || dy == 0 || dx == -dy))
                VIOLATE("cell_edges", "cell at (%lld, %lld) has edge (%lld,%lld)",
                        cell->dx, cell->dy, dx, dy);
        }
    }

    if (_regularity(s, ncells, n, px, py, violations) < 0)
        return -1;

    /* --- near-pencil and the determined-face suites ---------------------- */
    int near_pencil = NEAR_YES;
    for (i = 0; i < ncells; i++) {
        if (cells[i].cls == CLS_TRI && cells[i].bdry < 1) {
            near_pencil = NEAR_NO;
            break;
        }
    }

    /* the parallelograms in each triangle's corner slots, as linked lists;
     * a triangle cell is the one unit triangle at its lex-min corner */
    for (k = 0; k < ncells; k++)
        slot_head[k] = -1;
    for (k = 0; k < ncells; k++) {
        i64 bx, by;
        if (cells[k].cls != CLS_PAR || !_corner_slot_base(&cells[k], &bx, &by)
            || bx < 0 || by < 0 || bx + by >= n)
            continue;
        int tri = owner[OWNER(bx, by, 0)];
        if (cells[tri].cls == CLS_TRI) {
            slot_next[k] = slot_head[tri];
            slot_head[tri] = k;
        }
    }

    int m_noncorner = 0, union_count = 0;
    for (k = 0; k < ncells; k++) {
        union_flags[k] = 0;
        adj_tri_count[k] = 0;
        seen_by[k] = -1;
    }
    for (int ti = 0; ti < ncells; ti++) {
        const Cell *tri = &cells[ti];
        if (tri->cls != CLS_TRI)
            continue;
        int det_count = 0;
        for (e = 0; e < 3; e++) {
            int ni = (int)tri->vx[0] + NBR_DI[e], nj = (int)tri->vy[0] + NBR_DJ[e];
            if (ni < 0 || nj < 0 || ni + nj > n - 2)
                continue;
            k = owner[OWNER(ni, nj, 1)];
            if ((cells[k].cls != CLS_PAR && cells[k].cls != CLS_HEX) || seen_by[k] == ti)
                continue;
            seen_by[k] = ti;
            determined[det_count++] = k;
            if (cells[k].cls == CLS_PAR)
                adj_tri_count[k]++;
        }
        for (k = slot_head[ti]; k >= 0; k = slot_next[k]) {
            if (seen_by[k] != ti) {
                seen_by[k] = ti;
                determined[det_count++] = k;
            }
        }
        if (det_count > 6) {
            PyErr_Format(PyExc_AssertionError,
                         "triangle at (%lld, %lld) determined %d faces, maximum is 6",
                         tri->dx, tri->dy, det_count);
            return -1;
        }
        if (tri->bdry < 2) {
            m_noncorner++;
            for (j = 0; j < det_count; j++) {
                if (!union_flags[determined[j]]) {
                    union_flags[determined[j]] = 1;
                    union_count++;
                }
            }
        }
        if (tri->bdry == 0 && det_count < 3)
            VIOLATE("determined_minimum", "triangle at (%lld, %lld) determines %d faces, needs 3",
                    tri->dx, tri->dy, det_count);
        else if (tri->bdry == 1 && det_count < 1)
            VIOLATE("determined_minimum", "triangle at (%lld, %lld) determines %d faces, needs 1",
                    tri->dx, tri->dy, det_count);
    }
    if (!(k_faces >= union_count && union_count >= m_noncorner))
        VIOLATE("determined_union", "k=%d, union=%d, m=%d", k_faces, union_count, m_noncorner);
    for (j = 0; j < ncells; j++) {
        if (adj_tri_count[j] < 2)
            continue;
        for (i = 0; i < cells[j].m; i++) {
            e = i + 1 == cells[j].m ? 0 : i + 1;
            dx = cells[j].vx[e] - cells[j].vx[i];
            dy = cells[j].vy[e] - cells[j].vy[i];
            if (dx < -1 || dx > 1 || dy < -1 || dy > 1) {
                VIOLATE("unit_parallelogram",
                        "parallelogram adjacent to %d triangles has a non-unit edge",
                        adj_tri_count[j]);
                break;
            }
        }
    }
    return near_pencil;
}

/* The analysis of n distinct points within the coordinate bound, in scratch
 * memory s carved for n, its violations appended to the list; -1 with an
 * exception set. */
static int
_analyze(const i64 *px, const i64 *py, int n, const Scratch *s, PyObject *violations,
         Summary *out)
{
    i64 vx[MAXN], vy[MAXN];
    int i, j, e;
    for (i = 0; i < n; i++) {
        vx[i] = -px[i];
        vy[i] = -py[i];
    }

    /* --- pairwise stable intersections and candidate points ------------ */
    i64 *candkey = s->candkey, *stabkey = s->stabkey;
    int ncand = 0, nstab = 0;
    i64 cx, cy, wx, wy;
    i64 crossx[6], crossy[6];
    int hits;

    for (i = 0; i < n; i++)
        candkey[ncand++] = KEY(vx[i], vy[i]);
    for (i = 0; i < n; i++) {
        for (j = i + 1; j < n; j++) {
            if (_stable_point(vx, vy, i, j, crossx, crossy, &hits, &wx, &wy) < 0)
                return -1;
            for (int h = 0; h < hits; h++)
                candkey[ncand++] = KEY(crossx[h], crossy[h]);
            stabkey[nstab++] = KEY(wx, wy);
            candkey[ncand++] = KEY(wx, wy);
        }
    }
    int ncand_u = _sort_unique(candkey, ncand);
    int nstab_u = _sort_unique(stabkey, nstab);

    int b_pairwise = nstab_u;
    int h_pairwise = 0;
    for (i = 0; i < nstab_u; i++) {
        cx = KEY_X(stabkey[i]);
        cy = KEY_Y(stabkey[i]);
        for (j = 0; j < n; j++) {
            if (vx[j] == cx && vy[j] == cy) {
                h_pairwise++;
                break;
            }
        }
    }
    int k_pairwise = b_pairwise - h_pairwise;

    /* --- arrangement vertices and their dual cells ---------------------- */
    Cell *cells = s->cells;
    int ncells = 0;

    for (i = 0; i < ncand_u; i++) {
        cx = KEY_X(candkey[i]);
        cy = KEY_Y(candkey[i]);
        /* lines through q with argmax {1,2,3}, {1,3}, {2,3}, {1,2}, {1}, {2} */
        int count[8] = {0};
        for (j = 0; j < n; j++)
            count[_argmask(vx[j], vy[j], cx, cy)]++;
        int c = count[7], sa = count[5], sb = count[6], sc = count[3], cls;
        int nz = (sa > 0) + (sb > 0) + (sc > 0);
        if (!(c == 1 || nz >= 2))
            continue;
        if (c == 1)
            cls = nz == 0 ? CLS_TRI : nz == 1 ? CLS_NU4 : nz == 2 ? CLS_NU5 : CLS_NU6;
        else
            cls = nz == 2 ? CLS_PAR : CLS_HEX;
        Cell *cell = &cells[ncells++];
        cell->m = _walk_cell(c, sa, sb, sc, count[1], count[2], cell->vx, cell->vy);
        cell->cls = cls;
        cell->dx = cx;
        cell->dy = cy;
        cell->area2 = 0;
        cell->bdry = 0;
        for (j = 0; j < cell->m; j++) {
            e = j + 1 == cell->m ? 0 : j + 1;
            i64 ax = cell->vx[j], ay = cell->vy[j], bx = cell->vx[e], by = cell->vy[e];
            cell->area2 += ax * by - ay * bx;
            if ((ax == 0 && bx == 0) || (ay == 0 && by == 0) || (ax + ay == n && bx + by == n))
                cell->bdry++;
        }
    }

    /* --- counts and identity suites ------------------------------------- */
    int t_count = ncells;
    int triangles = 0, k_faces = 0, h_faces = 0;
    for (i = 0; i < ncells; i++) {
        if (cells[i].cls == CLS_TRI)
            triangles++;
        else if (cells[i].cls == CLS_PAR || cells[i].cls == CLS_HEX)
            k_faces++;
        else
            h_faces++;
    }
    int b_faces = t_count - triangles;

    if (t_count != triangles + b_faces)
        VIOLATE("count_identities", "t != triangles + b: " COUNTS, COUNTS_ARGS);
    if (b_faces != k_faces + h_faces)
        VIOLATE("count_identities", "b != k + h: " COUNTS, COUNTS_ARGS);
    if (h_faces != n - triangles)
        VIOLATE("count_identities", "h != n - triangles: " COUNTS, COUNTS_ARGS);
    if (!(n <= t_count && t_count <= n * (n - 1) / 2 + n))
        VIOLATE("count_identities", "t out of range [n, n(n-1)/2 + n]: " COUNTS, COUNTS_ARGS);
    if (b_faces != b_pairwise || k_faces != k_pairwise || h_faces != h_pairwise)
        VIOLATE("cross_oracle",
                "faces give b=%d k=%d h=%d, pairwise intersections give b=%d k=%d h=%d",
                b_faces, k_faces, h_faces, b_pairwise, k_pairwise, h_pairwise);
    if (t_count == n && triangles > 3)
        VIOLATE("max_triangles", "t=n=%d but %d triangles", t_count, triangles);

    int near_pencil = _tiled_suites(s, ncells, n, k_faces, px, py, violations);
    if (near_pencil < 0)
        return -1;

    /* --- the bound --------------------------------------------------------- */
    int excess = b_pairwise - (n - 3);
    if (n >= 4) {
        if (excess < 0)
            VIOLATE("bound", "b=%d < v-3=%d", b_pairwise, n - 3);
        if (excess == 0 && near_pencil == NEAR_NO)
            VIOLATE("near_pencil", "b=v-3=%d but subdivision is not a near-pencil", b_pairwise);
    }
    out->t = t_count;
    out->triangles = triangles;
    out->b = b_faces;
    out->k = k_faces;
    out->h = h_faces;
    out->near_pencil = near_pencil;
    out->excess = excess;
    return 0;
}

/* The 12 record keys, interned once per module. */
static const char *const RECORD_KEYS[] = {
    "v", "t", "triangles", "b", "k", "h", "near_pencil",
    "bound_holds", "equality", "consistent", "excess", "violations",
};
#define NKEYS ((int)(sizeof(RECORD_KEYS) / sizeof(RECORD_KEYS[0])))

typedef struct {
    PyObject *keys[NKEYS];
} ModuleState;

/* The record dict, built once; NULL with an exception set. */
static PyObject *
_record(ModuleState *state, int n, const Summary *s, PyObject *violations)
{
    int equality = s->excess == 0;
    PyObject *near_pencil = s->near_pencil == NEAR_UNTILED ? Py_None
                            : s->near_pencil == NEAR_YES ? Py_True : Py_False;
    PyObject *values[NKEYS] = {
        PyLong_FromLong(n),
        PyLong_FromLong(s->t),
        PyLong_FromLong(s->triangles),
        PyLong_FromLong(s->b),
        PyLong_FromLong(s->k),
        PyLong_FromLong(s->h),
        Py_NewRef(near_pencil),
        PyBool_FromLong(s->excess >= 0),
        PyBool_FromLong(equality),
        PyBool_FromLong(!equality || s->near_pencil == NEAR_YES),
        PyLong_FromLong(s->excess),
        Py_NewRef(violations),
    };
    PyObject *record = PyDict_New();
    for (int k = 0; k < NKEYS; k++) {
        if (record != NULL && (values[k] == NULL
                               || PyDict_SetItem(record, state->keys[k], values[k]) < 0))
            Py_CLEAR(record);
        Py_XDECREF(values[k]);
    }
    return record;
}

PyDoc_STRVAR(analyze_ints_doc,
"analyze_ints(points)\n--\n\n"
"The per-configuration analysis record for integer points.\n\n"
"points is a sequence of 1 to MAX_POINTS (128) distinct (x, y) tuples\n"
"or lists of integers within +/- 2**20. Same shape as\n"
"analysis.analyze_config:\n"
"counts, flags, excess and the violations list with the shared suite\n"
"vocabulary.");

static PyObject *
analyze_ints(PyObject *module, PyObject *points)
{
    i64 px[MAXN], py[MAXN];
    Summary summary;
    Scratch scratch;
    int n = _read_points(points, 1, "need at least one point", px, py);
    if (n < 0 || _scratch_new(n, &scratch) < 0)
        return NULL;
    PyObject *record = NULL;
    PyObject *violations = PyList_New(0);
    if (violations != NULL && _analyze(px, py, n, &scratch, violations, &summary) == 0)
        record = _record(PyModule_GetState(module), n, &summary, violations);
    Py_XDECREF(violations);
    PyMem_Free(scratch.block);
    return record;
}

PyDoc_STRVAR(has_ordinary_line_doc,
"has_ordinary_line(points)\n--\n\n"
"True iff some stable line of the configuration passes through exactly\n"
"two of the points. Fast predicate for witness searches; takes points as\n"
"analyze_ints does, at least two of them.");

static PyObject *
has_ordinary_line(PyObject *Py_UNUSED(module), PyObject *points)
{
    i64 px[MAXN], py[MAXN], vx[MAXN], vy[MAXN];
    i64 crossx[6], crossy[6], wx, wy;
    int nstab = 0, hits, i, j;
    int n = _read_points(points, 2, "need at least two points", px, py);
    if (n < 0)
        return NULL;
    i64 *stabkey = PyMem_New(i64, (size_t)n * (n - 1) / 2);
    if (stabkey == NULL)
        return PyErr_NoMemory();
    PyObject *result = Py_False;
    for (i = 0; i < n; i++) {
        vx[i] = -px[i];
        vy[i] = -py[i];
    }
    for (i = 0; i < n; i++) {
        for (j = i + 1; j < n; j++) {
            if (_stable_point(vx, vy, i, j, crossx, crossy, &hits, &wx, &wy) < 0) {
                result = NULL;
                goto done;
            }
            stabkey[nstab++] = KEY(wx, wy);
        }
    }
    nstab = _sort_unique(stabkey, nstab);
    for (i = 0; i < nstab && result == Py_False; i++) {
        i64 cx = KEY_X(stabkey[i]), cy = KEY_Y(stabkey[i]);
        int incident = 0;
        for (j = 0; j < n; j++) {
            int mask = _argmask(vx[j], vy[j], cx, cy);
            if (mask != 1 && mask != 2 && mask != 4)
                incident++;
        }
        if (incident == 2)
            result = Py_True;
    }
done:
    PyMem_Free(stabkey);
    return Py_XNewRef(result);
}

/* ---- the chunk entry -------------------------------------------------- */

/* A growing buffer for a chunk's JSONL text. */
typedef struct {
    char *data;
    size_t used, size;
} Text;

/* Room for extra more bytes; -1 with MemoryError set. */
static int
_text_reserve(Text *text, size_t extra)
{
    if (text->used + extra <= text->size)
        return 0;
    size_t size = 2 * text->size + extra;
    char *data = PyMem_Realloc(text->data, size);
    if (data == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    text->data = data;
    text->size = size;
    return 0;
}

static char *
_put(char *at, const char *bytes, size_t length)
{
    memcpy(at, bytes, length);
    return at + length;
}

#define PUT_LITERAL(at, literal) _put(at, literal, sizeof(literal) - 1)

/* v in decimal, as Python's "%d" writes it; at most 20 characters. */
static char *
_put_int(char *at, i64 v)
{
    char digits[20];
    int k = 0;
    unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
    if (v < 0)
        *at++ = '-';
    do {
        digits[k++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (k)
        *at++ = digits[--k];
    return at;
}

/* A JSONL line's bytes besides its violations, for n points within the
 * coordinate bound: each point "[x,y]," takes at most 2 * 8 + 4. */
#define LINE_BYTES(n) (128 + 20 * (size_t)(n))

/* Append one sweep record's JSONL line, the bytes of
 * serialize.sweep_line_json: {"config":[[x,y],...],"excess":e,"index":i,
 * "violations":[["suite","detail"],...]}. The kernel's suite names and
 * messages are printable ASCII without quotes or backslashes (the test
 * suite pins every format string), which json.dumps writes unescaped. */
static int
_put_line(Text *text, i64 index, const i64 *px, const i64 *py, int n, int excess,
          PyObject *violations)
{
    Py_ssize_t count = violations == NULL ? 0 : PyList_GET_SIZE(violations);
    if (_text_reserve(text, LINE_BYTES(n)) < 0)
        return -1;
    char *at = text->data + text->used;
    at = PUT_LITERAL(at, "{\"config\":[");
    for (int i = 0; i < n; i++) {
        at = PUT_LITERAL(at, "[");
        at = _put_int(at, px[i]);
        at = PUT_LITERAL(at, ",");
        at = _put_int(at, py[i]);
        at = i + 1 < n ? PUT_LITERAL(at, "],") : PUT_LITERAL(at, "]");
    }
    at = PUT_LITERAL(at, "],\"excess\":");
    at = _put_int(at, excess);
    at = PUT_LITERAL(at, ",\"index\":");
    at = _put_int(at, index);
    at = PUT_LITERAL(at, ",\"violations\":[");
    text->used = at - text->data;
    for (Py_ssize_t v = 0; v < count; v++) {
        PyObject *entry = PyList_GET_ITEM(violations, v);
        Py_ssize_t suite_len, detail_len;
        const char *suite = PyUnicode_AsUTF8AndSize(PyList_GET_ITEM(entry, 0), &suite_len);
        if (suite == NULL)
            return -1;
        const char *detail = PyUnicode_AsUTF8AndSize(PyList_GET_ITEM(entry, 1), &detail_len);
        if (detail == NULL || _text_reserve(text, suite_len + detail_len + 8) < 0)
            return -1;
        at = text->data + text->used;
        at = v > 0 ? PUT_LITERAL(at, ",[\"") : PUT_LITERAL(at, "[\"");
        at = _put(at, suite, suite_len);
        at = PUT_LITERAL(at, "\",\"");
        at = _put(at, detail, detail_len);
        at = PUT_LITERAL(at, "\"]");
        text->used = at - text->data;
    }
    if (_text_reserve(text, 4) < 0)
        return -1;
    at = PUT_LITERAL(text->data + text->used, "]}\n");
    text->used = at - text->data;
    return 0;
}

/* The entries of violations whose suite name is in checks, as a new list;
 * NULL with an exception set. */
static PyObject *
_kept(PyObject *violations, PyObject *checks)
{
    PyObject *kept = PyList_New(0);
    for (Py_ssize_t v = 0; kept != NULL && v < PyList_GET_SIZE(violations); v++) {
        PyObject *entry = PyList_GET_ITEM(violations, v);
        int in = PySequence_Contains(checks, PyList_GET_ITEM(entry, 0));
        if (in < 0 || (in && PyList_Append(kept, entry) < 0))
            Py_CLEAR(kept);
    }
    return kept;
}

PyDoc_STRVAR(analyze_chunk_doc,
"analyze_chunk(configs, start, checks, encode)\n--\n\n"
"A sweep's chunk of configurations analyzed in one call: configs is a\n"
"sequence of point sequences, each taken as analyze_ints takes it, and\n"
"the first of them has sweep index start. Returns (excesses, flagged,\n"
"text): excesses holds each configuration's excess as a native int\n"
"(array('i') bytes); flagged lists (offset, violations) in offset order\n"
"for the configurations that have violations whose suite is in checks,\n"
"with only those violations; text is the chunk's JSONL lines, each\n"
"serialize.sweep_line_json's line of the record plus a newline, or None\n"
"when encode is false.");

static PyObject *
analyze_chunk(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *configs, *checks;
    Py_ssize_t start;
    int encode;
    if (!PyArg_ParseTuple(args, "OnOp:analyze_chunk", &configs, &start, &checks, &encode))
        return NULL;
    /* a private tuple, as _read_points takes the points */
    PyObject *seq = PySequence_Tuple(configs);
    if (seq == NULL)
        return NULL;
    Py_ssize_t count = PyTuple_GET_SIZE(seq);
    PyObject *excesses = PyBytes_FromStringAndSize(NULL, count * (Py_ssize_t)sizeof(int));
    PyObject *flagged = PyList_New(0);
    PyObject *violations = PyList_New(0);
    PyObject *kept = NULL, *lines, *result = NULL;
    Text text = {NULL, 0, 0};
    Scratch scratch = {0};
    int capacity = 0;
    if (excesses == NULL || flagged == NULL || violations == NULL)
        goto done;
    for (Py_ssize_t offset = 0; offset < count; offset++) {
        i64 px[MAXN], py[MAXN];
        Summary summary;
        int n = _read_points(PyTuple_GET_ITEM(seq, offset), 1, "need at least one point", px, py);
        if (n < 0)
            goto done;
        if (n > capacity) {
            PyMem_Free(scratch.block);
            if (_scratch_new(n, &scratch) < 0)
                goto done;
            capacity = n;
        }
        if (_analyze(px, py, n, &scratch, violations, &summary) < 0)
            goto done;
        memcpy(PyBytes_AS_STRING(excesses) + offset * sizeof(int), &summary.excess, sizeof(int));
        Py_CLEAR(kept);
        if (PyList_GET_SIZE(violations) > 0) {
            kept = _kept(violations, checks);
            if (kept == NULL || PyList_SetSlice(violations, 0, PY_SSIZE_T_MAX, NULL) < 0)
                goto done;
            if (PyList_GET_SIZE(kept) > 0) {
                PyObject *entry = Py_BuildValue("(nO)", offset, kept);
                int rc = entry == NULL ? -1 : PyList_Append(flagged, entry);
                Py_XDECREF(entry);
                if (rc < 0)
                    goto done;
            }
        }
        if (encode && _put_line(&text, start + offset, px, py, n, summary.excess, kept) < 0)
            goto done;
    }
    lines = encode ? PyUnicode_DecodeASCII(text.data, text.used, NULL) : Py_NewRef(Py_None);
    if (lines != NULL)
        result = Py_BuildValue("(OON)", excesses, flagged, lines);
done:
    PyMem_Free(scratch.block);
    PyMem_Free(text.data);
    Py_XDECREF(kept);
    Py_XDECREF(violations);
    Py_XDECREF(flagged);
    Py_XDECREF(excesses);
    Py_DECREF(seq);
    return result;
}

/* ---- module definition (multi-phase initialization, PEP 489) ------------ */

static PyMethodDef fastsweep_methods[] = {
    {"analyze_ints", analyze_ints, METH_O, analyze_ints_doc},
    {"has_ordinary_line", has_ordinary_line, METH_O, has_ordinary_line_doc},
    {"analyze_chunk", analyze_chunk, METH_VARARGS, analyze_chunk_doc},
    {NULL, NULL, 0, NULL},
};

static int
fastsweep_exec(PyObject *module)
{
    ModuleState *state = PyModule_GetState(module);
    for (int k = 0; k < NKEYS; k++) {
        state->keys[k] = PyUnicode_InternFromString(RECORD_KEYS[k]);
        if (state->keys[k] == NULL)
            return -1;
    }
    return PyModule_AddIntConstant(module, "MAX_POINTS", MAXN);
}

static int
fastsweep_traverse(PyObject *module, visitproc visit, void *arg)
{
    ModuleState *state = PyModule_GetState(module);
    for (int k = 0; k < NKEYS; k++)
        Py_VISIT(state->keys[k]);
    return 0;
}

static int
fastsweep_clear(PyObject *module)
{
    ModuleState *state = PyModule_GetState(module);
    for (int k = 0; k < NKEYS; k++)
        Py_CLEAR(state->keys[k]);
    return 0;
}

static void
fastsweep_free(void *module)
{
    fastsweep_clear((PyObject *)module);
}

static PyModuleDef_Slot fastsweep_slots[] = {
    {Py_mod_exec, fastsweep_exec},
    {0, NULL},
};

PyDoc_STRVAR(fastsweep_doc,
"Compiled integer kernel for configuration sweeps: an independent\n"
"reimplementation of analysis.analyze_config for integer points.");

static struct PyModuleDef fastsweep_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "troplines._fastsweep",
    .m_doc = fastsweep_doc,
    .m_size = sizeof(ModuleState),
    .m_methods = fastsweep_methods,
    .m_slots = fastsweep_slots,
    .m_traverse = fastsweep_traverse,
    .m_clear = fastsweep_clear,
    .m_free = fastsweep_free,
};

PyMODINIT_FUNC
PyInit__fastsweep(void)
{
    return PyModuleDef_Init(&fastsweep_module);
}
