/* Compiled integer kernel for configuration sweeps.
 *
 * This is an independent reimplementation of analysis.analyze_config for
 * integer point configurations, written against the same mathematical
 * contract rather than the Python code: closed-form ray crossings instead
 * of the generic rational crossing routine, C arrays instead of objects,
 * and the same suite names in the same order. troplines.kernel routes
 * eligible configurations here and equivalence with the pure path is
 * enforced by the test suite.
 *
 * Everything is 64-bit integer arithmetic. Coordinates must lie within
 * +/- 2**20 (checked on entry), which bounds every intermediate
 * comfortably below overflow. Python objects appear only at the boundary:
 * the points are converted once on entry, and the record is built once at
 * the end.
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
    MAXN = 16,
    MAXV = 8,          /* a subdivision cell has at most 6 corners */
    MAXCELLS = 152,    /* n + n(n-1)/2 at n = 16, plus slack */
    MAXCAND = 2240,    /* vertices + 10 candidate points per pair, plus slack */
    MAXSUM = 24,       /* Minkowski accumulator: 6 hull corners x 3 summands */
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

static inline i64
_gcd(i64 a, i64 b)
{
    i64 t;
    if (a < 0)
        a = -a;
    if (b < 0)
        b = -b;
    while (b) {
        t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/* Convex hull, counterclockwise, lex-min vertex first, collinear points
 * dropped; 1 or 2 points for degenerate inputs. Returns the count. */
static int
_hull(const i64 *px, const i64 *py, int m, i64 *ox, i64 *oy)
{
    i64 sx[MAXSUM], sy[MAXSUM];
    i64 hx[2 * MAXSUM], hy[2 * MAXSUM];
    int i, j, k, cnt = 0, lo, hi;
    /* insertion sort by (x, y) with dedup */
    for (i = 0; i < m; i++) {
        i64 kx = px[i], ky = py[i];
        j = cnt;
        while (j > 0 && (sx[j - 1] > kx || (sx[j - 1] == kx && sy[j - 1] > ky)))
            j--;
        if (j < cnt && sx[j] == kx && sy[j] == ky)
            continue;
        for (k = cnt; k > j; k--) {
            sx[k] = sx[k - 1];
            sy[k] = sy[k - 1];
        }
        sx[j] = kx;
        sy[j] = ky;
        cnt++;
    }
    if (cnt <= 2) {
        for (i = 0; i < cnt; i++) {
            ox[i] = sx[i];
            oy[i] = sy[i];
        }
        return cnt;
    }
    lo = 0;
    for (i = 0; i < cnt; i++) {
        while (lo >= 2 && _cross3(hx[lo - 2], hy[lo - 2], hx[lo - 1], hy[lo - 1], sx[i], sy[i]) <= 0)
            lo--;
        hx[lo] = sx[i];
        hy[lo] = sy[i];
        lo++;
    }
    hi = lo;
    for (i = cnt - 1; i >= 0; i--) {
        while (hi - lo >= 2 && _cross3(hx[hi - 2], hy[hi - 2], hx[hi - 1], hy[hi - 1], sx[i], sy[i]) <= 0)
            hi--;
        hx[hi] = sx[i];
        hy[hi] = sy[i];
        hi++;
    }
    /* hull = lower[:-1] + upper[:-1]; lower occupies [0, lo), upper [lo, hi) */
    k = 0;
    for (i = 0; i < lo - 1; i++, k++) {
        ox[k] = hx[i];
        oy[k] = hy[i];
    }
    for (i = lo; i < hi - 1; i++, k++) {
        ox[k] = hx[i];
        oy[k] = hy[i];
    }
    return k;
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

static inline int
_cell_contains(const Cell *c, i64 x, i64 y)
{
    for (int i = 0; i < c->m; i++) {
        int j = i + 1 == c->m ? 0 : i + 1;
        if (_cross3(c->vx[i], c->vy[i], c->vx[j], c->vy[j], x, y) < 0)
            return 0;
    }
    return 1;
}

/* Separating-axis test flush with an edge of either polygon. */
static int
_interiors_disjoint(const Cell *p, const Cell *q)
{
    for (int k = 0; k < 2; k++) {
        const Cell *a = k == 0 ? p : q;
        const Cell *b = k == 0 ? q : p;
        for (int i = 0; i < a->m; i++) {
            int j = i + 1 == a->m ? 0 : i + 1;
            int all_out = 1;
            for (int v = 0; v < b->m; v++) {
                if (_cross3(a->vx[i], a->vy[i], a->vx[j], a->vy[j], b->vx[v], b->vy[v]) > 0) {
                    all_out = 0;
                    break;
                }
            }
            if (all_out)
                return 1;
        }
    }
    return 0;
}

/* Positive-length collinear overlap between any edges. */
static int
_shares_edge(const Cell *p, const Cell *q)
{
    for (int i = 0; i < p->m; i++) {
        int i2 = i + 1 == p->m ? 0 : i + 1;
        i64 ax = p->vx[i], ay = p->vy[i];
        i64 dx = p->vx[i2] - ax, dy = p->vy[i2] - ay;
        i64 len2 = dx * dx + dy * dy;
        for (int j = 0; j < q->m; j++) {
            int j2 = j + 1 == q->m ? 0 : j + 1;
            if ((q->vx[j] - ax) * dy != (q->vy[j] - ay) * dx)
                continue;
            if ((q->vx[j2] - ax) * dy != (q->vy[j2] - ay) * dx)
                continue;
            i64 tc = (q->vx[j] - ax) * dx + (q->vy[j] - ay) * dy;
            i64 td = (q->vx[j2] - ax) * dx + (q->vy[j2] - ay) * dy;
            i64 lo = tc < td ? tc : td;
            i64 hi = tc > td ? tc : td;
            if (hi > len2)
                hi = len2;
            if (lo < 0)
                lo = 0;
            if (hi > lo)
                return 1;
        }
    }
    return 0;
}

/* Bitmask of edge direction classes: 1 horizontal, 2 vertical,
 * 4 antidiagonal, 8 anything else. */
static int
_edge_class_mask(const Cell *c)
{
    int mask = 0;
    for (int i = 0; i < c->m; i++) {
        int j = i + 1 == c->m ? 0 : i + 1;
        i64 dx = c->vx[j] - c->vx[i];
        i64 dy = c->vy[j] - c->vy[i];
        i64 g = _gcd(dx, dy);
        dx /= g;
        dy /= g;
        if (dy < 0 || (dy == 0 && dx < 0)) {
            dx = -dx;
            dy = -dy;
        }
        if (dx == 1 && dy == 0)
            mask |= 1;
        else if (dx == 0 && dy == 1)
            mask |= 2;
        else if (dx == -1 && dy == 1)
            mask |= 4;
        else
            mask |= 8;
    }
    return mask;
}

/* Parallelogram in one of the three corner slots of the triangle with
 * right-angle corner (bx, by). */
static int
_corner_pattern(const Cell *s, i64 bx, i64 by)
{
    int mask = _edge_class_mask(s);
    int i;
    i64 mx, my, ay;
    if (mask == 3) {  /* horizontal + vertical: maximal corner at the base */
        mx = s->vx[0];
        my = s->vy[0];
        for (i = 1; i < s->m; i++) {
            if (s->vx[i] > mx)
                mx = s->vx[i];
            if (s->vy[i] > my)
                my = s->vy[i];
        }
        return mx == bx && my == by;
    }
    if (mask == 6) {  /* vertical + antidiagonal: max-x then min-y corner */
        mx = s->vx[0];
        for (i = 1; i < s->m; i++)
            if (s->vx[i] > mx)
                mx = s->vx[i];
        ay = NEG;
        for (i = 0; i < s->m; i++)
            if (s->vx[i] == mx && (ay == NEG || s->vy[i] < ay))
                ay = s->vy[i];
        return mx == bx && ay == by + 1;
    }
    if (mask == 5) {  /* horizontal + antidiagonal: unique min-x corner */
        mx = s->vx[0];
        my = s->vy[0];
        for (i = 1; i < s->m; i++) {
            if (s->vx[i] < mx) {
                mx = s->vx[i];
                my = s->vy[i];
            }
        }
        return mx == bx + 1 && my == by;
    }
    return 0;
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

/* The stable point of two lines whose vertices lie on a common ray axis:
 * the vertex that lies on the other line. */
static void
_coaxial_point(i64 ax, i64 ay, i64 bx, i64 by, i64 *wx, i64 *wy)
{
    int first;
    if (by == ay)
        first = ax < bx;
    else if (bx == ax)
        first = ay < by;
    else
        first = ax > bx;
    *wx = first ? ax : bx;
    *wy = first ? ay : by;
}

static inline int
_coaxial(i64 dx, i64 dy)
{
    return dy == 0 || dx == 0 || dx == dy;
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

/* The lift of n * Delta_2 by dynamic programming over the points, then
 * the scan that each cell's affine fit matches the lift on the cell and
 * dominates it elsewhere; stops at the first violation. -1 with an
 * exception set. */
static int
_regularity(const Cell *cells, int ncells, int n, const i64 *px, const i64 *py,
            PyObject *violations)
{
    i64 lift[(MAXN + 1) * (MAXN + 1)], lift2[(MAXN + 1) * (MAXN + 1)];
    int i, j, ii, jj, width = n + 1;
    for (ii = 0; ii < width * width; ii++)
        lift[ii] = NEG;
    lift[0] = 0;
    for (j = 0; j < n; j++) {
        for (ii = 0; ii < width * width; ii++)
            lift2[ii] = NEG;
        for (ii = 0; ii < width; ii++) {
            for (jj = 0; jj < width - ii; jj++) {
                i64 best = lift[ii * width + jj];
                if (ii > 0 && lift[(ii - 1) * width + jj] != NEG) {
                    i64 cand = lift[(ii - 1) * width + jj] + px[j];
                    if (cand > best)
                        best = cand;
                }
                if (jj > 0 && lift[ii * width + jj - 1] != NEG) {
                    i64 cand = lift[ii * width + jj - 1] + py[j];
                    if (cand > best)
                        best = cand;
                }
                lift2[ii * width + jj] = best;
            }
        }
        for (ii = 0; ii < width * width; ii++)
            lift[ii] = lift2[ii];
    }

    for (i = 0; i < ncells; i++) {
        const Cell *cell = &cells[i];
        i64 D = _cross3(cell->vx[0], cell->vy[0], cell->vx[1], cell->vy[1],
                        cell->vx[2], cell->vy[2]);
        if (D <= 0) {
            VIOLATE("regularity", "cell at (%lld, %lld) is not counterclockwise",
                    cell->dx, cell->dy);
            return 0;
        }
        i64 h0 = lift[cell->vx[0] * width + cell->vy[0]];
        i64 h1 = lift[cell->vx[1] * width + cell->vy[1]];
        i64 h2 = lift[cell->vx[2] * width + cell->vy[2]];
        i64 beta = (h1 - h0) * (cell->vy[2] - cell->vy[0]) - (h2 - h0) * (cell->vy[1] - cell->vy[0]);
        i64 gamma = (cell->vx[1] - cell->vx[0]) * (h2 - h0) - (cell->vx[2] - cell->vx[0]) * (h1 - h0);
        i64 alpha = D * h0 - beta * cell->vx[0] - gamma * cell->vy[0];
        for (ii = 0; ii < width; ii++) {
            for (jj = 0; jj < width - ii; jj++) {
                i64 want = D * lift[ii * width + jj];
                i64 got = alpha + beta * ii + gamma * jj;
                if (_cell_contains(cell, ii, jj)) {
                    if (got != want) {
                        VIOLATE("regularity",
                                "cell at (%lld, %lld): lift and affine fit disagree "
                                "at lattice point (%d, %d)", cell->dx, cell->dy, ii, jj);
                        return 0;
                    }
                } else if (got < want) {
                    VIOLATE("regularity",
                            "cell at (%lld, %lld): affine fit fails to dominate the lift "
                            "at (%d, %d)", cell->dx, cell->dy, ii, jj);
                    return 0;
                }
            }
        }
    }
    return 0;
}

/* The suites that need a tiling: the tiling itself, cell edge directions,
 * regularity against the lift, the near-pencil flag and the determined
 * faces. Returns the near-pencil flag, NEAR_UNTILED when the cells do not
 * tile n * Delta_2, or -1 with an exception set. */
static int
_tiled_suites(const Cell *cells, int ncells, int n, int k_faces, const i64 *px,
              const i64 *py, PyObject *violations)
{
    int i, j, e;
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
    for (i = 0; i < ncells; i++) {
        for (j = i + 1; j < ncells; j++) {
            if (!_interiors_disjoint(&cells[i], &cells[j])) {
                VIOLATE("tiling", "cells at (%lld, %lld) and (%lld, %lld) overlap",
                        cells[i].dx, cells[i].dy, cells[j].dx, cells[j].dy);
                return NEAR_UNTILED;
            }
        }
    }

    /* --- cell edge directions ------------------------------------------- */
    for (i = 0; i < ncells; i++) {
        const Cell *cell = &cells[i];
        if (!(_edge_class_mask(cell) & 8))
            continue;
        for (j = 0; j < cell->m; j++) {
            e = j + 1 == cell->m ? 0 : j + 1;
            dx = cell->vx[e] - cell->vx[j];
            dy = cell->vy[e] - cell->vy[j];
            if (!(dx == 0 || dy == 0 || dx == -dy))
                VIOLATE("cell_edges", "cell at (%lld, %lld) has edge (%lld,%lld)",
                        cell->dx, cell->dy, dx, dy);
        }
    }

    if (_regularity(cells, ncells, n, px, py, violations) < 0)
        return -1;

    /* --- near-pencil and the determined-face suites ---------------------- */
    int near_pencil = NEAR_YES;
    for (i = 0; i < ncells; i++) {
        if (cells[i].cls == CLS_TRI && cells[i].bdry < 1) {
            near_pencil = NEAR_NO;
            break;
        }
    }

    unsigned char union_flags[MAXCELLS] = {0};
    int adj_tri_count[MAXCELLS] = {0};
    int determined[MAXCELLS];
    int m_noncorner = 0, union_count = 0;
    for (int ti = 0; ti < ncells; ti++) {
        const Cell *tri = &cells[ti];
        if (tri->cls != CLS_TRI)
            continue;
        i64 basex = tri->vx[0], basey = tri->vy[0];
        for (j = 1; j < tri->m; j++) {
            if (tri->vx[j] < basex)
                basex = tri->vx[j];
            if (tri->vy[j] < basey)
                basey = tri->vy[j];
        }
        int det_count = 0;
        for (j = 0; j < ncells; j++) {
            int cls = cells[j].cls;
            if (j == ti || (cls != CLS_PAR && cls != CLS_HEX))
                continue;
            if (_shares_edge(tri, &cells[j])) {
                determined[det_count++] = j;
                if (cls == CLS_PAR)
                    adj_tri_count[j]++;
            } else if (cls == CLS_PAR && _corner_pattern(&cells[j], basex, basey)) {
                determined[det_count++] = j;
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

/* The analysis of n distinct points within the coordinate bound, its
 * violations appended to the list; -1 with an exception set. */
static int
_analyze(const i64 *px, const i64 *py, int n, PyObject *violations, Summary *out)
{
    i64 vx[MAXN], vy[MAXN];
    int i, j, e;
    for (i = 0; i < n; i++) {
        vx[i] = -px[i];
        vy[i] = -py[i];
    }

    /* --- pairwise stable intersections and candidate points ------------ */
    i64 candkey[MAXCAND];
    int ncand = 0;
    i64 stabkey[MAXCAND];
    int nstab = 0;
    i64 cx, cy, wx, wy, dx, dy;
    i64 crossx[6], crossy[6];

    for (i = 0; i < n; i++)
        candkey[ncand++] = KEY(vx[i], vy[i]);
    for (i = 0; i < n; i++) {
        for (j = i + 1; j < n; j++) {
            dx = vx[j] - vx[i];
            dy = vy[j] - vy[i];
            int hits = _ray_crossings(vx[i], vy[i], dx, dy, crossx, crossy);
            for (int h = 0; h < hits; h++)
                candkey[ncand++] = KEY(crossx[h], crossy[h]);
            if (_coaxial(dx, dy)) {
                _coaxial_point(vx[i], vy[i], vx[j], vy[j], &wx, &wy);
                stabkey[nstab++] = KEY(wx, wy);
                candkey[ncand++] = KEY(wx, wy);
            } else {
                if (hits != 1) {
                    PyErr_Format(PyExc_AssertionError,
                                 "non-coaxial pair %d,%d produced %d crossings", i, j, hits);
                    return -1;
                }
                stabkey[nstab++] = KEY(crossx[0], crossy[0]);
            }
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
    Cell cells[MAXCELLS];
    int ncells = 0;
    int masks[MAXN];
    i64 accx[MAXSUM], accy[MAXSUM], sumx[MAXSUM], sumy[MAXSUM];

    for (i = 0; i < ncand_u; i++) {
        cx = KEY_X(candkey[i]);
        cy = KEY_Y(candkey[i]);
        int c_full = 0, sa = 0, sb = 0, sc = 0, cls;
        for (j = 0; j < n; j++) {
            int mask = _argmask(vx[j], vy[j], cx, cy);
            masks[j] = mask;
            if (mask == 7)
                c_full++;
            else if (mask == 5)
                sa++;
            else if (mask == 6)
                sb++;
            else if (mask == 3)
                sc++;
        }
        int nz = (sa > 0) + (sb > 0) + (sc > 0);
        if (!(c_full == 1 || nz >= 2))
            continue;
        if (c_full == 1)
            cls = nz == 0 ? CLS_TRI : nz == 1 ? CLS_NU4 : nz == 2 ? CLS_NU5 : CLS_NU6;
        else
            cls = nz == 2 ? CLS_PAR : CLS_HEX;
        /* Minkowski sum of per-line argmax exponent hulls */
        int acc_m = 1;
        accx[0] = 0;
        accy[0] = 0;
        for (j = 0; j < n; j++) {
            i64 ex[3], ey[3];
            int ne = 0, sum_m = 0;
            if (masks[j] & 1) {
                ex[ne] = 1;
                ey[ne++] = 0;
            }
            if (masks[j] & 2) {
                ex[ne] = 0;
                ey[ne++] = 1;
            }
            if (masks[j] & 4) {
                ex[ne] = 0;
                ey[ne++] = 0;
            }
            for (int r1 = 0; r1 < acc_m; r1++) {
                for (int r2 = 0; r2 < ne; r2++) {
                    sumx[sum_m] = accx[r1] + ex[r2];
                    sumy[sum_m] = accy[r1] + ey[r2];
                    sum_m++;
                }
            }
            acc_m = _hull(sumx, sumy, sum_m, accx, accy);
        }
        if (ncells >= MAXCELLS) {
            PyErr_SetString(PyExc_AssertionError, "cell capacity exceeded");
            return -1;
        }
        Cell *cell = &cells[ncells++];
        cell->m = acc_m;
        cell->cls = cls;
        cell->dx = cx;
        cell->dy = cy;
        cell->area2 = 0;
        cell->bdry = 0;
        for (j = 0; j < acc_m; j++) {
            cell->vx[j] = accx[j];
            cell->vy[j] = accy[j];
        }
        for (j = 0; j < acc_m; j++) {
            e = j + 1 == acc_m ? 0 : j + 1;
            cell->area2 += accx[j] * accy[e] - accy[j] * accx[e];
            if ((accx[j] == 0 && accx[e] == 0) || (accy[j] == 0 && accy[e] == 0)
                || (accx[j] + accy[j] == n && accx[e] + accy[e] == n))
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

    int near_pencil = _tiled_suites(cells, ncells, n, k_faces, px, py, violations);
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
"points is a sequence of 1 to 16 distinct (x, y) tuples or lists of\n"
"integers within +/- 2**20. Same shape as analysis.analyze_config:\n"
"counts, flags, excess and the violations list with the shared suite\n"
"vocabulary.");

static PyObject *
analyze_ints(PyObject *module, PyObject *points)
{
    i64 px[MAXN], py[MAXN];
    Summary summary;
    int n = _read_points(points, 1, "need at least one point", px, py);
    if (n < 0)
        return NULL;
    PyObject *violations = PyList_New(0);
    if (violations == NULL)
        return NULL;
    PyObject *record = NULL;
    if (_analyze(px, py, n, violations, &summary) == 0)
        record = _record(PyModule_GetState(module), n, &summary, violations);
    Py_DECREF(violations);
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
    i64 stabkey[MAXCAND], crossx[6], crossy[6], wx, wy;
    int nstab = 0, i, j;
    int n = _read_points(points, 2, "need at least two points", px, py);
    if (n < 0)
        return NULL;
    for (i = 0; i < n; i++) {
        vx[i] = -px[i];
        vy[i] = -py[i];
    }
    for (i = 0; i < n; i++) {
        for (j = i + 1; j < n; j++) {
            i64 dx = vx[j] - vx[i], dy = vy[j] - vy[i];
            if (_coaxial(dx, dy)) {
                _coaxial_point(vx[i], vy[i], vx[j], vy[j], &wx, &wy);
            } else {
                int hits = _ray_crossings(vx[i], vy[i], dx, dy, crossx, crossy);
                if (hits != 1)
                    return PyErr_Format(PyExc_AssertionError,
                                        "non-coaxial pair %d,%d produced %d crossings",
                                        i, j, hits);
                wx = crossx[0];
                wy = crossy[0];
            }
            stabkey[nstab++] = KEY(wx, wy);
        }
    }
    nstab = _sort_unique(stabkey, nstab);
    for (i = 0; i < nstab; i++) {
        i64 cx = KEY_X(stabkey[i]), cy = KEY_Y(stabkey[i]);
        int incident = 0;
        for (j = 0; j < n; j++) {
            int mask = _argmask(vx[j], vy[j], cx, cy);
            if (mask != 1 && mask != 2 && mask != 4)
                incident++;
        }
        if (incident == 2)
            Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

/* ---- module definition (multi-phase initialization, PEP 489) ------------ */

static PyMethodDef fastsweep_methods[] = {
    {"analyze_ints", analyze_ints, METH_O, analyze_ints_doc},
    {"has_ordinary_line", has_ordinary_line, METH_O, has_ordinary_line_doc},
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
    return 0;
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
