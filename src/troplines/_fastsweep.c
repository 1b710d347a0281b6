/* Compiled integer kernel for configuration sweeps.
 *
 * This is an independent reimplementation of analysis.analyze_config for
 * integer point configurations, written against the same mathematical
 * contract rather than the Python code, with the same suite names in the
 * same order. A sweep runs here when kernel.stream_eligible admits every
 * configuration it can generate, and equivalence with the pure path is
 * enforced by the test suite.
 *
 * Per configuration:
 *   - two lines cross at most once off their vertices, at a point six
 *     strict sign tests on the vertices' offset find; that crossing, or for
 *     a pair on a common ray axis one of its vertices, is the pair's stable
 *     point, and the vertices and crossings are the candidate vertices;
 *   - candidates and stable points are sorted and deduplicated without a
 *     comparator callback: by insertion up to SMALL_SORT keys, else by a
 *     radix sort over the bytes in which the keys' fields differ;
 *   - the argmax counts over the lines (c, s_a, s_b, s_c and the two shift
 *     counts), taken for LANES candidates at a time, classify each
 *     candidate and fix its dual cell, whose boundary is walked in closed
 *     form, convex and counterclockwise with H, V and D edges for any
 *     counts; c + s_a + s_b + s_c lines pass through an arrangement vertex,
 *     so the vertices where that sum is 2 are the ordinary stable lines,
 *     those through exactly two points;
 *   - each cell is rasterized into one owner grid of the n^2 unit
 *     triangles of n * Delta_2, which checks the tiling and is the only
 *     adjacency structure: its edge adjacency gives a local regularity
 *     check against the lift, and the owners of six unit triangles around
 *     each triangle cell give the faces it determines;
 *   - all a cell's data stays in its Cell: its corners and class from the
 *     walk, its affine fit from the regularity check and its two tallies
 *     from the determined faces, whose finds for one triangle, at most
 *     six, stay on the stack.
 * The argmax counts and the lift take O(n^3) steps; the subdivision checks
 * are near-linear in the n^2 unit triangles. On a 2-core x86 host at -O2,
 * analyze_chunk takes about 2 us per configuration over the 376,992
 * five-point subsets of the 6 x 6 grid, and in range 1000 about 0.12 ms
 * per configuration at n = 32, 0.5 ms at n = 64 and 2.6 ms at n = 128
 * (fastest of five runs in one process).
 *
 * The geometry is exact integer arithmetic, in 64 bits where no comment
 * bounds a 32-bit term. Coordinates must lie within +/- 2**20 and there
 * are at most MAXN = 128 = 2**7 points (both checked on entry), which
 * bounds every intermediate well below 2**63:
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
 * allocated for the call and sized from n, and builds its record dict at
 * the end. analyze_chunk takes a sweep's chunk of configurations, with
 * one scratch allocation for the chunk sized from its largest n; it writes
 * each configuration's JSONL line straight into one text buffer and its
 * excess into one bytes object, and passes on, as they are, only the
 * violation lists of the records that have any and the offsets of those
 * with no ordinary stable line.
 *
 * Build: python3 setup.py build_ext --inplace, or directly with
 *   cc -O2 -shared -fPIC -I<python include dir> _fastsweep.c -o _fastsweep<EXT_SUFFIX>
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdarg.h>

typedef long long i64;

enum {
    MAXN = 128,
    MAXV = 8,          /* a subdivision cell has at most 6 corners, then its first again */
    /* the argmax counts take the candidates LANES at a time, as 32-bit
     * coordinates, so that a compiler can count a block of them against
     * each line with vector instructions; there are NCOUNTS of them */
    LANES = 4,
    NCOUNTS = 6,
};

#define NEG (-((i64)1 << 50))
#define LIMIT ((i64)1 << 20)
#define OFF ((i64)1 << 23)
#define SHIFT_BITS 25
#define SHIFT ((i64)1 << SHIFT_BITS)
#define KEY(x, y) (((x) + OFF) * SHIFT + ((y) + OFF))
#define KEY_X(key) ((key) / SHIFT - OFF)
#define KEY_Y(key) ((key) % SHIFT - OFF)

/* A dual cell's counterclockwise boundary from its lex-min corner: SE s_c,
 * E s_a + c, N s_b, NW s_c + c, W s_a and S s_b + c. */
static const i64 STEPX[6] = {1, 1, 0, -1, -1, 0};
static const i64 STEPY[6] = {-1, 0, 1, 1, 0, -1};

/* A unit triangle of n * Delta_2: (i, j, 0) is conv{(i,j), (i+1,j), (i,j+1)}
 * and (i, j, 1) is conv{(i+1,j), (i,j+1), (i+1,j+1)}; its owner sits at
 * owner[OWNER(i, j, down)]. Every edge between two of them joins an upward
 * triangle (i, j, 0) to the downward one at (i + NBR[e].di, j + NBR[e].dj)
 * across its bottom, left or diagonal edge e < 3. For e = 3, 4 and 5 that
 * downward triangle lies at the corner p + (NBR[e].ci, NBR[e].cj) of the
 * upward one at p: p, p + (0,1) or p + (1,0). Its owner is in the corner
 * slot there when it has a corner there and edges in the slot's directions
 * NBR[e].dirs (H = 1, V = 2, D = 4), as _in_corner_slot tests. */
#define OWNER(i, j, down) (2 * ((j) * n + (i)) + (down))
static const struct { int di, dj, ci, cj, dirs; } NBR[6] = {
    {0, -1, 0, 0, 0}, {-1, 0, 0, 0, 0}, {0, 0, 0, 0, 0},
    {-1, -1, 0, 0, 3}, {-1, 1, 0, 1, 6}, {1, -1, 1, 0, 5},
};

enum { CLS_TRI, CLS_PAR, CLS_HEX, CLS_NU4, CLS_NU5, CLS_NU6 };

/* A vertex's cell class by whether one line has its vertex there (c = 1)
 * and by how many of s_a, s_b and s_c are positive: with c = 1 a triangle,
 * or a non-uniform cell with 4, 5 or 6 sides; otherwise, with two or three
 * positive, a parallelogram or a hexagon. */
static const int CLASS[2][4] = {
    {-1, -1, CLS_PAR, CLS_HEX},
    {CLS_TRI, CLS_NU4, CLS_NU5, CLS_NU6},
};

/* A dual cell of the arrangement vertex (dx, dy): its m corners,
 * counterclockwise, with the first repeated at index m, so that edge j runs
 * from corner j to corner j + 1; its class and number of boundary edges.
 * The walk fills these and zeroes the two face tallies; the regularity
 * check sets the affine fit, det * lift = alpha + beta x + gamma y through
 * the first three corners. */
typedef struct {
    int m;
    i64 vx[MAXV];
    i64 vy[MAXV];
    int cls;
    i64 dx;
    i64 dy;
    int bdry;
    int in_union;  /* a triangle not at a corner of n * Delta_2 determines it */
    int adj_tris;  /* how many triangles a parallelogram shares an edge with */
    i64 det, alpha, beta, gamma;
} Cell;

/* One analysis' scratch memory, carved from a single allocation sized from
 * n. There are at most n + n(n-1)/2 candidate points: the vertices, then
 * for each pair of lines the one crossing off their vertices that a pair
 * not on a common ray axis has, which is its stable point. Every cell
 * comes from a distinct candidate, so the cells and the sort's second
 * buffer take as many entries, and the candidates' coordinates and argmax
 * counts one more block of LANES; the stable points take n(n-1)/2, the
 * lift (n + 2)^2 with its border and the owner grid 2 n^2. Nothing is
 * initialized here. */
typedef struct {
    void *block;
    i64 *candkey, *sortbuf, *stabkey, *lift;
    Cell *cells;
    int *qx, *qy, *counts, *owner;
    int stride;    /* of the argmax counts, cand + LANES */
} Scratch;

/* Carve s's nine arrays for n points; -1 with MemoryError set. Free
 * s->block after. */
static int
_scratch_new(int n, Scratch *s)
{
    size_t pairs = (size_t)n * (n - 1) / 2, cand = n + pairs;
    size_t owner_slots = 2 * (size_t)n * n, lift_slots = (size_t)(n + 2) * (n + 2);
    /* widest alignment first, so each array starts aligned; the owner grid,
     * indexed by geometry, last, next to any allocator's guard bytes */
    size_t bytes = (2 * cand + pairs + lift_slots) * sizeof(i64) + cand * sizeof(Cell)
                   + ((2 + NCOUNTS) * (cand + LANES) + owner_slots) * sizeof(int);
    char *at = PyMem_Malloc(bytes);
    s->block = at;
    if (at == NULL) {
        PyErr_NoMemory();
        return -1;
    }
#define CARVE(field, count) (s->field = (void *)at, at += (count) * sizeof(*s->field))
    CARVE(candkey, cand);
    CARVE(sortbuf, cand);
    CARVE(stabkey, pairs);
    CARVE(lift, lift_slots);
    CARVE(cells, cand);
    s->stride = (int)(cand + LANES);
    CARVE(qx, cand + LANES);
    CARVE(qy, cand + LANES);
    CARVE(counts, NCOUNTS * (cand + LANES));
    CARVE(owner, owner_slots);
#undef CARVE
    return 0;
}

static inline i64
_cross3(i64 ox, i64 oy, i64 ax, i64 ay, i64 bx, i64 by)
{
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox);
}

/* At each candidate q, the numbers of lines whose argmax is
 * {x, y, constant}, {x, constant}, {y, constant}, {x, y}, {x} and {y}, the
 * terms of max(q_x - v_x, q_y - v_y, 0) for the line with vertex v that
 * attain the maximum, into counts[k * stride + q] for k = 0..5, for the
 * ncand candidates (qx, qy), ncand a whole number of blocks. |q| < 2**23
 * and |v| <= 2**20, so the differences fit in an int. */
static void
_argmax_counts(const int *lx, const int *ly, int n, const int *qx, const int *qy, int ncand,
               int stride, int *counts)
{
    for (int b = 0; b < ncand; b += LANES) {
        int acc[NCOUNTS][LANES] = {{0}};
        for (int j = 0; j < n; j++) {
            for (int l = 0; l < LANES; l++) {
                int t1 = qx[b + l] - lx[j], t2 = qy[b + l] - ly[j];
                acc[0][l] += (t1 == 0) & (t2 == 0);
                acc[1][l] += (t1 == 0) & (t2 < 0);
                acc[2][l] += (t2 == 0) & (t1 < 0);
                acc[3][l] += (t1 == t2) & (t1 > 0);
                acc[4][l] += (t1 > 0) & (t1 > t2);
                acc[5][l] += (t2 > 0) & (t2 > t1);
            }
        }
        for (int k = 0; k < NCOUNTS; k++)
            for (int l = 0; l < LANES; l++)
                counts[k * stride + b + l] = acc[k][l];
    }
}

/* The corners of the cell with shape parameters (c, s_a, s_b, s_c) and
 * shift counts (only_x, only_y): the Minkowski sum of a unit triangle when
 * c = 1 and of unit H, V and D segments s_a, s_b and s_c times, shifted by
 * (only_x, only_y). Walked counterclockwise from the lex-min corner
 * (only_x, only_y + s_c), skipping steps of zero length; returns the
 * corner count m and repeats the first corner at index m. Each step writes
 * its start, which the next step overwrites when the step has zero
 * length. */
static int
_walk_cell(int c, int sa, int sb, int sc, int only_x, int only_y, i64 *ox, i64 *oy)
{
    const int length[6] = {sc, sa + c, sb, sc + c, sa, sb + c};
    i64 x = only_x, y = only_y + sc;
    int m = 0;
    for (int k = 0; k < 6; k++) {
        ox[m] = x;
        oy[m] = y;
        m += length[k] != 0;
        x += STEPX[k] * length[k];
        y += STEPY[k] * length[k];
    }
    ox[m] = ox[0];
    oy[m] = oy[0];
    return m;
}

/* Claim for cell k, which lies inside n * Delta_2, the unit triangles whose
 * centroids lie strictly inside it. Returns a cell that already owned one
 * of them, or -1.
 *
 * The centroid c lies strictly left of the edge from v to v + e when
 * cross(3e, c - 3v) > 0 in coordinates scaled by 3, that is when
 * e_x c_y - e_y c_x > 3 cross(v, e), exact in integers, or
 * e_x (c_y - 3 v_y) - e_y (c_x - 3 v_x) > 0. Row by row the centroids step
 * by 3 in y, so the left side steps by 3 e_x, and along a row by 3 in x,
 * so it steps by -3 e_y; a downward centroid lies (1, 1) past the upward
 * one. The corners lie in n * Delta_2, so every term fits in an int; the
 * tests run over all MAXV lanes without branches, the lanes past the last
 * edge testing 1 > 0. */
static int
_rasterize(const Cell *cell, int k, int n, int *owner)
{
    int ex[MAXV] = {0}, ey[MAXV] = {0}, start[MAXV], row[MAXV];
    int xlo = (int)cell->vx[0], xhi = xlo, ylo = (int)cell->vy[0], yhi = ylo;
    for (int v = 0; v < cell->m; v++) {
        int x = (int)cell->vx[v], y = (int)cell->vy[v];
        xlo = x < xlo ? x : xlo;
        xhi = x > xhi ? x : xhi;
        ylo = y < ylo ? y : ylo;
        yhi = y > yhi ? y : yhi;
    }
    for (int v = 0; v < MAXV; v++)
        start[v] = 1;
    for (int v = 0; v < cell->m; v++) {
        int x = (int)cell->vx[v], y = (int)cell->vy[v];
        ex[v] = (int)cell->vx[v + 1] - x;
        ey[v] = (int)cell->vy[v + 1] - y;
        /* at the upward centroid (3 xlo + 1, 3 ylo + 1) */
        start[v] = ex[v] * (3 * (ylo - y) + 1) - ey[v] * (3 * (xlo - x) + 1);
    }
    for (int j = ylo; j < yhi; j++) {
        for (int v = 0; v < MAXV; v++) {
            row[v] = start[v];
            start[v] += 3 * ex[v];
        }
        for (int i = xlo; i < xhi; i++) {
            /* bit 0 when the upward centroid fails a test, bit 1 the downward */
            int outside = 0;
            for (int v = 0; v < MAXV; v++) {
                outside |= (row[v] <= 0) | (row[v] + ex[v] - ey[v] <= 0) << 1;
                row[v] -= 3 * ey[v];
            }
            for (int down = 0; down < 2; down++) {
                if (outside >> down & 1)
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

/* Whether the cell s, which owns the corner triangle of slot e >= 3 of the
 * triangle with base (x, y), sits in that slot: its edges run in the slot's
 * two directions and it has a corner at the slot's corner. Any other corner
 * would leave a point of the corner triangle outside it, so this is the
 * anchor rule of the paper-figure templates. */
static int
_in_corner_slot(const Cell *s, int e, i64 x, i64 y)
{
    int dirs = 0, corner = 0;
    for (int i = 0; i < s->m; i++) {
        i64 dx = s->vx[i + 1] - s->vx[i], dy = s->vy[i + 1] - s->vy[i];
        dirs |= dy == 0 ? 1 : dx == 0 ? 2 : dx == -dy ? 4 : 8;
        corner |= s->vx[i] == x + NBR[e].ci && s->vy[i] == y + NBR[e].cj;
    }
    return dirs == NBR[e].dirs && corner;
}

/* The keys of the crossings between the 3 x 3 ray pairs of the lines with
 * vertices a and a + (dx, dy) that lie off both vertices, in ray-pair
 * order, written to keys, which has room for six; returns their count.
 * Rays of one direction are parallel, and each other pair (r1 from a, r2
 * from a + d) meets where t r1 - s r2 = d, off the vertices when t, s > 0:
 * a strict sign test on d. A crossing at a vertex has d on a ray axis, and
 * is a candidate already as that vertex. Every crossing is written and a
 * missed one overwritten by the next, without branches. */
static int
_ray_crossings(i64 ax, i64 ay, i64 dx, i64 dy, i64 *keys)
{
    int hits = 0;
    keys[hits] = KEY(ax + dx, ay); /* W, S */
    hits += (dx < 0) & (dy > 0);
    keys[hits] = KEY(ax + dx - dy, ay); /* W, NE */
    hits += (dx < dy) & (dy < 0);
    keys[hits] = KEY(ax, ay + dy); /* S, W */
    hits += (dy < 0) & (dx > 0);
    keys[hits] = KEY(ax, ay + dy - dx); /* S, NE */
    hits += (dy < dx) & (dx < 0);
    keys[hits] = KEY(ax + dy, ay + dy); /* NE, W */
    hits += (0 < dy) & (dy < dx);
    keys[hits] = KEY(ax + dx, ay + dx); /* NE, S */
    hits += (0 < dx) & (dx < dy);
    return hits;
}

/* The keys of the ray crossings of lines i and j off their vertices into
 * keys, which has room for six, their count in *hits, and the key of the
 * pair's stable point: when the vertices lie on a common ray axis, the
 * vertex that lies on the other line, and the pair crosses only there;
 * else the pair's single crossing. So it is always one of the vertices or
 * crossings. -1 with an AssertionError set when a pair crosses otherwise. */
static i64
_stable_point(const i64 *vx, const i64 *vy, int i, int j, i64 *keys, int *hits)
{
    i64 dx = vx[j] - vx[i], dy = vy[j] - vy[i];
    *hits = _ray_crossings(vx[i], vy[i], dx, dy, keys);
    /* the vertices are distinct, so at most one of the three axes holds */
    int coaxial = (dy == 0) | (dx == 0) | (dx == dy);
    int first = ((dy == 0) & (dx > 0)) | ((dx == 0) & (dy > 0)) | ((dx == dy) & (dx < 0));
    i64 vertex = first ? KEY(vx[i], vy[i]) : KEY(vx[j], vy[j]);
    if (*hits == !coaxial)
        return coaxial ? vertex : keys[0];
    PyErr_Format(PyExc_AssertionError, "%s pair %d,%d produced %d crossings",
                 coaxial ? "coaxial" : "non-coaxial", i, j, *hits);
    return -1;
}

/* Runs of at most SMALL_SORT keys are sorted by insertion, longer ones by
 * radix. */
#define SMALL_SORT 96

/* A radix digit of a key: byte `byte` of one of its fields, the y field in
 * the low SHIFT_BITS bits or the x field above them, less the field's least
 * value among the keys. */
typedef struct {
    int shift, byte;
    i64 mask, base;
} Digit;

#define DIGIT(key, d) ((int)(((((key) >> (d).shift) & (d).mask) - (d).base) >> 8 * (d).byte) & 255)

/* Sort count keys in place and drop repeats; the number of unique keys.
 * Short runs are sorted by insertion. Longer ones take a
 * least-significant-digit radix sort, y field before x field, over the
 * bytes in which their fields' spans among these keys can differ, which
 * ping-pongs with buf, as large as keys. */
static int
_sort_unique(i64 *keys, int count, i64 *buf)
{
    int unique = 0;
    if (count <= SMALL_SORT) {
        for (int i = 1; i < count; i++) {
            i64 key = keys[i];
            int at = i;
            for (; at > 0 && keys[at - 1] > key; at--)
                keys[at] = keys[at - 1];
            keys[at] = key;
        }
        /* each key is written after the last one kept, and kept unless it
         * repeats that one */
        unique = count > 0;
        for (int i = 1; i < count; i++) {
            keys[unique] = keys[i];
            unique += keys[i] != keys[unique - 1];
        }
        return unique;
    }
    i64 ylo = keys[0] & (SHIFT - 1), yhi = ylo, xlo = keys[0] >> SHIFT_BITS, xhi = xlo;
    for (int i = 1; i < count; i++) {
        i64 y = keys[i] & (SHIFT - 1), x = keys[i] >> SHIFT_BITS;
        ylo = y < ylo ? y : ylo;
        yhi = y > yhi ? y : yhi;
        xlo = x < xlo ? x : xlo;
        xhi = x > xhi ? x : xhi;
    }
    /* each field is below 2**24, so it has at most three bytes */
    Digit digits[6];
    int passes = 0;
    for (int byte = 0; (yhi - ylo) >> 8 * byte; byte++)
        digits[passes++] = (Digit){0, byte, SHIFT - 1, ylo};
    for (int byte = 0; (xhi - xlo) >> 8 * byte; byte++)
        digits[passes++] = (Digit){SHIFT_BITS, byte, -1, xlo};
    int bucket[6][256] = {{0}};
    for (int i = 0; i < count; i++)
        for (int d = 0; d < passes; d++)
            bucket[d][DIGIT(keys[i], digits[d])]++;
    i64 *from = keys, *to = buf;
    for (int d = 0; d < passes; d++) {
        int *at = bucket[d], sum = 0;
        for (int b = 0; b < 256; b++) {
            int size = at[b];
            at[b] = sum;
            sum += size;
        }
        for (int i = 0; i < count; i++)
            to[at[DIGIT(from[i], digits[d])]++] = from[i];
        i64 *swap = from;
        from = to;
        to = swap;
    }
    for (int i = 0; i < count; i++)
        if (unique == 0 || from[i] != keys[unique - 1])
            keys[unique++] = from[i];
    return unique;
}

/* ---- the Python boundary ------------------------------------------------ */

/* Read a sequence of distinct integer pairs within the coordinate bound
 * into (px, py); the point count, or -1 with an exception set. */
static int
_read_points(PyObject *points, i64 *px, i64 *py)
{
    Py_ssize_t n = PyObject_Length(points);
    if (n < 0)
        return -1;
    if (n < 1) {
        PyErr_SetString(PyExc_ValueError, "need at least one point");
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
#define COUNTS_ARGS n, out->t, out->triangles, out->b, out->k, out->h

/* The near-pencil flag: False, True, or None when the cells do not tile;
 * the walk ands NEAR_YES with 0 or 1, so the first two are 0 and 1 */
enum { NEAR_NO, NEAR_YES, NEAR_UNTILED };

/* A configuration's analysis besides its violations, as the walk of the
 * cells and the suites fill it: the face counts, the ordinary stable points
 * (c + s_a + s_b + s_c = 2 lines pass through the vertex), the near-pencil
 * flag, the excess, and for the tiling suite the doubled area and whether
 * its corner scan has a violation to find. */
typedef struct {
    int t, triangles, b, k, h, ordinary;
    int near_pencil;   /* NEAR_YES while every triangle has a boundary edge */
    int excess;
    int outside;       /* some corner lies outside n * Delta_2 */
    i64 area2;
} Summary;

/* The lift of n * Delta_2: the coefficient table of the tropical product
 * of the n line polynomials, by dynamic programming over the points. After
 * point j, LIFT(ii, jj) for ii + jj <= j + 1 is the best of keeping the
 * value (constant term) or adding point j's x or y coordinate to the value
 * one step below; updated in place, high indices first, and on the new
 * diagonal ii + jj = j + 1 without a value to keep. The table has a border
 * row and column at index -1 that hold NEG, so the steps from the border
 * lose every comparison. */
#define LIFT(x, y) lift[((x) + 1) * (n + 2) + (y) + 1]
static void
_lift(int n, const i64 *px, const i64 *py, i64 *lift)
{
    for (int k = -1; k <= n; k++)
        LIFT(k, -1) = LIFT(-1, k) = NEG;
    LIFT(0, 0) = 0;
    for (int j = 0; j < n; j++) {
        i64 x = px[j], y = py[j];
        for (int ii = j + 1; ii >= 0; ii--) {
            int jj = j + 1 - ii;
            i64 with_x = LIFT(ii - 1, jj) + x, with_y = LIFT(ii, jj - 1) + y;
            LIFT(ii, jj) = with_y > with_x ? with_y : with_x;
            while (jj-- > 0) {
                i64 best = LIFT(ii, jj);
                with_x = LIFT(ii - 1, jj) + x;
                with_y = LIFT(ii, jj - 1) + y;
                best = with_x > best ? with_x : best;
                LIFT(ii, jj) = with_y > best ? with_y : best;
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
    Cell *cells = s->cells;
    const int *owner = s->owner;
    i64 *lift = s->lift;
    int i, j, k;
#define FIT(k, x, y) (cells[k].alpha + cells[k].beta * (x) + cells[k].gamma * (y))
    _lift(n, px, py, lift);
    for (k = 0; k < ncells; k++) {
        Cell *cell = &cells[k];
        /* the walk's consecutive corners turn left, so det > 0 */
        cell->det = _cross3(cell->vx[0], cell->vy[0], cell->vx[1], cell->vy[1],
                            cell->vx[2], cell->vy[2]);
        i64 h0 = LIFT(cell->vx[0], cell->vy[0]);
        i64 h1 = LIFT(cell->vx[1], cell->vy[1]);
        i64 h2 = LIFT(cell->vx[2], cell->vy[2]);
        cell->beta = (h1 - h0) * (cell->vy[2] - cell->vy[0])
                     - (h2 - h0) * (cell->vy[1] - cell->vy[0]);
        cell->gamma = (cell->vx[1] - cell->vx[0]) * (h2 - h0)
                      - (cell->vx[2] - cell->vx[0]) * (h1 - h0);
        cell->alpha = cell->det * h0 - cell->beta * cell->vx[0] - cell->gamma * cell->vy[0];
    }
    /* The triangles in order, each upward one (i, j, 0) with its corners
     * (i + 1, j), (i, j + 1), (i, j), then the downward one (i, j, 1) with
     * (i + 1, j), (i, j + 1), (i + 1, j + 1), then the upward one's edges to
     * the downward ones below, left and across its diagonal, whose opposite
     * vertices are (i + 1, j - 1), (i - 1, j + 1) and (i + 1, j + 1). A
     * corner where the same cell's fit has passed already, as a corner of
     * the downward triangle below, to the left or of the upward one, is not
     * tested again: the first failure stays the first. */
    int at_x, at_y;
#define AGREE(cell, x, y) \
    do { \
        if (FIT(cell, x, y) != cells[cell].det * LIFT(x, y)) { \
            k = cell, at_x = x, at_y = y; \
            goto disagree; \
        } \
    } while (0)
#define DOMINATE(cell, x, y) \
    do { \
        if (FIT(cell, x, y) < cells[cell].det * LIFT(x, y)) { \
            k = cell, at_x = x, at_y = y; \
            goto undominated; \
        } \
    } while (0)
    for (j = 0; j < n; j++) {
        int left = -1, across = -1;
        for (i = 0; i + j < n; i++) {
            int up = owner[OWNER(i, j, 0)], below = j > 0 ? owner[OWNER(i, j - 1, 1)] : -1;
            if (up != below)
                AGREE(up, i + 1, j);
            if (up != left)
                AGREE(up, i, j + 1);
            if (up != left && up != below)
                AGREE(up, i, j);
            if (i + j + 1 < n) {
                across = owner[OWNER(i, j, 1)];
                if (across != up) {
                    AGREE(across, i + 1, j);
                    AGREE(across, i, j + 1);
                }
                AGREE(across, i + 1, j + 1);
            }
            if (j > 0 && below != up)
                DOMINATE(up, i + 1, j - 1);
            if (i > 0 && left != up)
                DOMINATE(up, i - 1, j + 1);
            if (i + j + 1 < n && across != up)
                DOMINATE(up, i + 1, j + 1);
            left = across;
        }
    }
    return 0;
disagree:
    VIOLATE("regularity", "cell at (%lld, %lld): lift and affine fit disagree "
            "at lattice point (%d, %d)", cells[k].dx, cells[k].dy, at_x, at_y);
    return 0;
undominated:
    VIOLATE("regularity", "cell at (%lld, %lld): affine fit fails to dominate the lift "
            "at (%d, %d)", cells[k].dx, cells[k].dy, at_x, at_y);
    return 0;
#undef DOMINATE
#undef AGREE
#undef FIT
#undef LIFT
}

/* The suites that need a tiling: the tiling itself, regularity against the
 * lift, the near-pencil flag and the determined faces, on the cells the
 * walk recorded in out. Sets its near-pencil flag to
 * NEAR_UNTILED when the cells do not tile n * Delta_2; -1 with an
 * exception set. */
static int
_tiled_suites(const Scratch *s, Summary *out, int n, const i64 *px, const i64 *py,
              PyObject *violations)
{
    Cell *cells = s->cells;
    int *owner = s->owner;
    int ncells = out->t, i, j, e, k;

    /* --- tiling ---------------------------------------------------------- */
    for (i = 0; i < ncells && out->outside; i++) {
        const Cell *cell = &cells[i];
        for (j = 0; j < cell->m; j++) {
            if (cell->vx[j] < 0 || cell->vy[j] < 0 || cell->vx[j] + cell->vy[j] > n) {
                VIOLATE("tiling", "cell at (%lld, %lld) leaves %d*Delta_2 at (%lld,%lld)",
                        cell->dx, cell->dy, n, cell->vx[j], cell->vy[j]);
                goto untiled;
            }
        }
    }
    if (out->area2 != (i64)n * n) {
        VIOLATE("tiling", "cell areas sum to %lld/2, expected %d/2 for n=%d",
                out->area2, n * n, n);
        goto untiled;
    }
    for (i = 0; i < 2 * n * n; i++)
        owner[i] = -1;
    /* a convex H/V/D cell claims as many unit triangles as its doubled
     * area, so with the area sum no overlap means every one is covered */
    for (k = 0; k < ncells; k++) {
        int first = _rasterize(&cells[k], k, n, owner);
        if (first >= 0) {
            VIOLATE("tiling", "cells at (%lld, %lld) and (%lld, %lld) overlap",
                    cells[first].dx, cells[first].dy, cells[k].dx, cells[k].dy);
            goto untiled;
        }
    }

    if (_regularity(s, ncells, n, px, py, violations) < 0)
        return -1;

    /* --- the determined-face suites ---------------------------------------- */
    int m_noncorner = 0, union_count = 0;
    /* each triangle cell, the one unit triangle at its lex-min corner, in
     * cell order: its semiuniform edge neighbours, then the parallelograms
     * in its corner slots */
    for (int ti = 0; ti < ncells; ti++) {
        const Cell *tri = &cells[ti];
        if (tri->cls != CLS_TRI)
            continue;
        int determined[6], det_count = 0;
        for (e = 0; e < 6; e++) {
            int ni = (int)tri->vx[0] + NBR[e].di, nj = (int)tri->vy[0] + NBR[e].dj;
            if (ni < 0 || nj < 0 || ni + nj > n - 2)
                continue;
            k = owner[OWNER(ni, nj, 1)];
            /* an edge neighbour counts when it is semiuniform, a corner's
             * owner when it is a parallelogram in that corner's slot, and
             * each face once; a parallelogram tallies its edge neighbours */
            if (e < 3 && cells[k].cls == CLS_PAR)
                cells[k].adj_tris++;
            int found = e < 3 ? cells[k].cls == CLS_PAR || cells[k].cls == CLS_HEX
                              : cells[k].cls == CLS_PAR
                                    && _in_corner_slot(&cells[k], e, tri->vx[0], tri->vy[0]);
            if (!found)
                continue;
            for (j = 0; j < det_count && determined[j] != k; j++)
                ;
            if (j == det_count)
                determined[det_count++] = k;
        }
        /* each e adds at most one face, so det_count <= 6 */
        if (tri->bdry < 2) {
            m_noncorner++;
            for (j = 0; j < det_count; j++) {
                union_count += !cells[determined[j]].in_union;
                cells[determined[j]].in_union = 1;
            }
        }
        if (tri->bdry == 0 && det_count < 3)
            VIOLATE("determined_minimum", "triangle at (%lld, %lld) determines %d faces, needs 3",
                    tri->dx, tri->dy, det_count);
        else if (tri->bdry == 1 && det_count < 1)
            VIOLATE("determined_minimum", "triangle at (%lld, %lld) determines %d faces, needs 1",
                    tri->dx, tri->dy, det_count);
    }
    if (!(out->k >= union_count && union_count >= m_noncorner))
        VIOLATE("determined_union", "k=%d, union=%d, m=%d", out->k, union_count,
                m_noncorner);
    /* only a parallelogram can be adjacent to triangles */
    for (k = 0; k < ncells; k++) {
        const Cell *cell = &cells[k];
        if (cell->adj_tris < 2)
            continue;
        for (i = 0; i < cell->m; i++) {
            i64 dx = cell->vx[i + 1] - cell->vx[i], dy = cell->vy[i + 1] - cell->vy[i];
            if (dx < -1 || dx > 1 || dy < -1 || dy > 1) {
                VIOLATE("unit_parallelogram",
                        "parallelogram adjacent to %d triangles has a non-unit edge",
                        cell->adj_tris);
                break;
            }
        }
    }
    return 0;
untiled:
    out->near_pencil = NEAR_UNTILED;
    return 0;
}

/* The analysis of n distinct points within the coordinate bound, in scratch
 * memory s carved for n: its violations appended to the list, the rest
 * written to out; -1 with an exception set. */
static int
_analyze(const i64 *px, const i64 *py, int n, const Scratch *s, PyObject *violations,
         Summary *out)
{
    i64 vx[MAXN], vy[MAXN];
    int lx[MAXN], ly[MAXN];
    int i, j;
    for (i = 0; i < n; i++) {
        lx[i] = (int)(vx[i] = -px[i]);
        ly[i] = (int)(vy[i] = -py[i]);
    }

    /* --- pairwise stable intersections and candidate points ------------ */
    i64 *candkey = s->candkey, *stabkey = s->stabkey;
    int ncand = 0, nstab = 0, hits;
    i64 vkey[MAXN], cross[6];

    for (i = 0; i < n; i++)
        candkey[ncand++] = vkey[i] = KEY(vx[i], vy[i]);
    for (i = 0; i < n; i++) {
        for (j = i + 1; j < n; j++) {
            i64 key = _stable_point(vx, vy, i, j, cross, &hits);
            if (key < 0)
                return -1;
            /* at most one crossing, written always and kept when there is one */
            candkey[ncand] = cross[0];
            ncand += hits;
            stabkey[nstab++] = key;
        }
    }
    int ncand_u = _sort_unique(candkey, ncand, s->sortbuf);
    int nstab_u = _sort_unique(stabkey, nstab, s->sortbuf);
    _sort_unique(vkey, n, s->sortbuf);

    /* the stable points that are line vertices, by merging the sorted keys */
    int b_pairwise = nstab_u;
    int h_pairwise = 0;
    for (i = 0, j = 0; i < nstab_u && j < n;) {
        if (stabkey[i] == vkey[j])
            h_pairwise++;
        if (stabkey[i] <= vkey[j])
            i++;
        else
            j++;
    }
    int k_pairwise = b_pairwise - h_pairwise;

    /* --- arrangement vertices and their dual cells ---------------------- */
    Cell *cells = s->cells;
    *out = (Summary){.near_pencil = NEAR_YES};
    int *qx = s->qx, *qy = s->qy;
    for (i = 0; i < ncand_u; i++) {
        qx[i] = (int)KEY_X(candkey[i]);
        qy[i] = (int)KEY_Y(candkey[i]);
    }
    for (; i % LANES; i++)
        qx[i] = qy[i] = 0;
    int stride = s->stride;
    _argmax_counts(lx, ly, n, qx, qy, i, stride, s->counts);

    for (i = 0; i < ncand_u; i++) {
        const int *count = s->counts + i;
        int c = count[0], sa = count[stride], sb = count[2 * stride], sc = count[3 * stride];
        int nz = (sa > 0) + (sb > 0) + (sc > 0);
        if (!(c == 1 || nz >= 2))
            continue;
        int cls = CLASS[c == 1][nz], k = out->t++, bdry = 0;
        out->ordinary += c + sa + sb + sc == 2;
        Cell *cell = &cells[k];
        cell->m = _walk_cell(c, sa, sb, sc, count[4 * stride], count[5 * stride], cell->vx,
                             cell->vy);
        cell->cls = cls;
        cell->dx = qx[i];
        cell->dy = qy[i];
        for (j = 0; j < cell->m; j++) {
            i64 ax = cell->vx[j], ay = cell->vy[j], bx = cell->vx[j + 1], by = cell->vy[j + 1];
            out->area2 += ax * by - ay * bx;
            bdry += ((ax == 0) & (bx == 0)) | ((ay == 0) & (by == 0))
                    | ((ax + ay == n) & (bx + by == n));
            out->outside |= (ax < 0) | (ay < 0) | (ax + ay > n);
        }
        /* no edge is skew: the step lengths sum to zero for any counts */
        cell->bdry = bdry;
        cell->in_union = cell->adj_tris = 0;
        out->triangles += cls == CLS_TRI;
        out->k += (cls == CLS_PAR) | (cls == CLS_HEX);
        out->h += cls >= CLS_NU4;
        out->near_pencil &= (cls != CLS_TRI) | (bdry >= 1);
    }

    /* --- counts and identity suites ------------------------------------- */
    out->b = out->t - out->triangles;

    if (out->t != out->triangles + out->b)
        VIOLATE("count_identities", "t != triangles + b: " COUNTS, COUNTS_ARGS);
    if (out->b != out->k + out->h)
        VIOLATE("count_identities", "b != k + h: " COUNTS, COUNTS_ARGS);
    if (out->h != n - out->triangles)
        VIOLATE("count_identities", "h != n - triangles: " COUNTS, COUNTS_ARGS);
    if (!(n <= out->t && out->t <= n * (n - 1) / 2 + n))
        VIOLATE("count_identities", "t out of range [n, n(n-1)/2 + n]: " COUNTS, COUNTS_ARGS);
    if (out->b != b_pairwise || out->k != k_pairwise || out->h != h_pairwise)
        VIOLATE("cross_oracle",
                "faces give b=%d k=%d h=%d, pairwise intersections give b=%d k=%d h=%d",
                out->b, out->k, out->h, b_pairwise, k_pairwise, h_pairwise);
    if (out->t == n && out->triangles > 3)
        VIOLATE("max_triangles", "t=n=%d but %d triangles", out->t, out->triangles);

    if (_tiled_suites(s, out, n, px, py, violations) < 0)
        return -1;

    /* --- the bound --------------------------------------------------------- */
    out->excess = b_pairwise - (n - 3);
    if (n >= 4) {
        if (out->excess < 0)
            VIOLATE("bound", "b=%d < v-3=%d", b_pairwise, n - 3);
        if (out->excess == 0 && out->near_pencil == NEAR_NO)
            VIOLATE("near_pencil", "b=v-3=%d but subdivision is not a near-pencil", b_pairwise);
    }
    return 0;
}

/* The record dict; NULL with an exception set. */
static PyObject *
_record(int n, const Summary *s, PyObject *violations)
{
    int equality = s->excess == 0;
    PyObject *near_pencil = s->near_pencil == NEAR_UNTILED ? Py_None
                            : s->near_pencil == NEAR_YES ? Py_True : Py_False;
    return Py_BuildValue(
        "{s:i,s:i,s:i,s:i,s:i,s:i,s:i,s:O,s:O,s:O,s:O,s:i,s:O}",
        "v", n, "t", s->t, "triangles", s->triangles, "b", s->b, "k", s->k, "h", s->h,
        "ordinary", s->ordinary,
        "near_pencil", near_pencil,
        "bound_holds", s->excess >= 0 ? Py_True : Py_False,
        "equality", equality ? Py_True : Py_False,
        "consistent", !equality || s->near_pencil == NEAR_YES ? Py_True : Py_False,
        "excess", s->excess, "violations", violations);
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
analyze_ints(PyObject *Py_UNUSED(module), PyObject *points)
{
    i64 px[MAXN], py[MAXN];
    Summary summary;
    Scratch scratch;
    int n = _read_points(points, px, py);
    if (n < 0 || _scratch_new(n, &scratch) < 0)
        return NULL;
    PyObject *record = NULL;
    PyObject *violations = PyList_New(0);
    if (violations != NULL && _analyze(px, py, n, &scratch, violations, &summary) == 0)
        record = _record(n, &summary, violations);
    Py_XDECREF(violations);
    PyMem_Free(scratch.block);
    return record;
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
    if (u < 10) {
        *at++ = (char)('0' + u);
        return at;
    }
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
    Py_ssize_t count = PyList_GET_SIZE(violations);
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

PyDoc_STRVAR(analyze_chunk_doc,
"analyze_chunk(configs, start, encode)\n--\n\n"
"A sweep's chunk of configurations analyzed in one call: configs is a\n"
"sequence of point sequences, each taken as analyze_ints takes it, and\n"
"the first of them has sweep index start. Returns (excesses, flagged,\n"
"bare, text): excesses holds each configuration's excess as a native int\n"
"(array('i') bytes); flagged lists (offset, violations) in offset order\n"
"for the configurations that have violations; bare lists the offsets, in\n"
"order, of the configurations whose record has ordinary == 0, no stable\n"
"line through exactly two points; text is the chunk's JSONL\n"
"lines, each serialize.sweep_line_json's line of the record plus a\n"
"newline, or None when encode is false.");

static PyObject *
analyze_chunk(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *configs;
    Py_ssize_t start;
    int encode;
    if (!PyArg_ParseTuple(args, "Onp:analyze_chunk", &configs, &start, &encode))
        return NULL;
    /* a private tuple, as _read_points takes the points */
    PyObject *seq = PySequence_Tuple(configs);
    if (seq == NULL)
        return NULL;
    Py_ssize_t count = PyTuple_GET_SIZE(seq);
    PyObject *excesses = PyBytes_FromStringAndSize(NULL, count * (Py_ssize_t)sizeof(int));
    PyObject *flagged = PyList_New(0);
    PyObject *bare = PyList_New(0);
    PyObject *violations = PyList_New(0);
    PyObject *lines, *result = NULL;
    Text text = {NULL, 0, 0};
    Scratch scratch = {0};
    int capacity = 0;
    if (excesses == NULL || flagged == NULL || bare == NULL || violations == NULL)
        goto done;
    for (Py_ssize_t offset = 0; offset < count; offset++) {
        i64 px[MAXN], py[MAXN];
        Summary summary;
        int n = _read_points(PyTuple_GET_ITEM(seq, offset), px, py);
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
        if (encode && _put_line(&text, start + offset, px, py, n, summary.excess, violations) < 0)
            goto done;
        if (PyList_GET_SIZE(violations) > 0) {
            /* flagged takes the list, and the next record starts a new one */
            PyObject *entry = Py_BuildValue("(nN)", offset, violations);
            int rc = entry == NULL ? -1 : PyList_Append(flagged, entry);
            Py_XDECREF(entry);
            violations = PyList_New(0);
            if (rc < 0 || violations == NULL)
                goto done;
        }
        if (summary.ordinary == 0) {
            PyObject *at = PyLong_FromSsize_t(offset);
            int rc = at == NULL ? -1 : PyList_Append(bare, at);
            Py_XDECREF(at);
            if (rc < 0)
                goto done;
        }
    }
    lines = encode ? PyUnicode_DecodeASCII(text.data, text.used, NULL) : Py_NewRef(Py_None);
    if (lines != NULL)
        result = Py_BuildValue("(OOON)", excesses, flagged, bare, lines);
done:
    PyMem_Free(scratch.block);
    PyMem_Free(text.data);
    Py_XDECREF(violations);
    Py_XDECREF(bare);
    Py_XDECREF(flagged);
    Py_XDECREF(excesses);
    Py_DECREF(seq);
    return result;
}

/* ---- module definition (multi-phase initialization, PEP 489) ------------ */

static PyMethodDef fastsweep_methods[] = {
    {"analyze_ints", analyze_ints, METH_O, analyze_ints_doc},
    {"analyze_chunk", analyze_chunk, METH_VARARGS, analyze_chunk_doc},
    {NULL, NULL, 0, NULL},
};

static int
fastsweep_exec(PyObject *module)
{
    return PyModule_AddIntConstant(module, "MAX_POINTS", MAXN);
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
    .m_methods = fastsweep_methods,
    .m_slots = fastsweep_slots,
};

PyMODINIT_FUNC
PyInit__fastsweep(void)
{
    return PyModuleDef_Init(&fastsweep_module);
}
