"""Twisted Hamiltonian flow in real and complex time.

The equations of motion in a chart are

    dx^l/ds = g^{lj}(x) p_j
    dp_l/ds = -(1/2) dg^{jk}/dx^l p_j p_k + beta_{lj}(x) g^{jk}(x) p_k

integrated together with the line integral dq/ds = A_j(x) dx^j/ds of the
vector potential along the base trajectory and, only when the caller asks for
it (``tangent=True``, the default), the first variational equation
dJ/ds = DX(z) J for the transported tangent map.  The phase point and the
quadrature need neither the field Jacobian DX nor the second derivatives of
the geometry, so a tangent-free flow skips them.

Complex time: the system is integrated along a polyline in the complex time
disk (each row along its own straight path when the rows have their own
targets); since the right-hand side is holomorphic the result is path independent
wherever the continuation exists, which the verification suite checks rather
than assumes.  The integrator is the DOP853 8(5,3) Runge-Kutta pair of
Dormand and Prince (Hairer, Norsett and Wanner, Solving ODEs I, Sec. II.10)
acting on the complexified state, one path segment at a time, with step
control per row (Sec. II.4): each row of a batch has its own step size and
place on its segment, is accepted or rejected by its own error norm, fails
on its own, and leaves the batch at the iteration it arrives or fails.  A
step's first stage is the field at its start point, formed at every
iteration and never at the end of the path.

A flow allocates the integrator's arrays once, for all its rows, and the
rows still moving use their first entries: the stages, one stage input, the
solution and its two error estimates, the state and a second state that
changes places with it when a step is accepted, and the error norm's
temporaries.  The stages are stored in the order 2, 1, 0, 3, ..., 11, so
that the nonzero weights of every combination of stages lie in one
contiguous run of slots; a combination is one matrix product over its run,
and the tableau's zero weights outside it are never read.  Each stage input
is formed in place, and the right-hand side writes each stage straight into
its slot.

The integrator runs the rows on the last axis: the packed state is (D, m),
the stages (12, D, m), and the geometry jet and every intermediate of the
right-hand side have the batch axis last.  A contraction over a chart index
is a Python loop over that index (``_bmm``, ``_contract_mid``, ``_dot``)
whose every term is one elementwise operation over a contiguous run of m
rows; with the rows first, numpy runs m inner loops of length n or 2n, and
at these sizes dispatch costs more than the arithmetic.  Elementwise terms
also make a row's right-hand side independent of the rest of its batch; with
per-row steps, two things still tie a row to its batch, both in the last
bit: ``np.matmul`` may round the stage combinations differently by column
position, and ``_error_norms`` sums each column of a (D, m) array, which
numpy sums pairwise when one row moves alone and in order otherwise.  The
public functions (``flow_many``, ``field_components``, ``BatchFlowResult``)
keep the rows first.

Each stage reads the geometry through one ``geo.jet`` call, which the
integrator makes and passes to ``_rhs``: first order for the field and the
quadrature, second order with the tangent map for the variational term.
That term is formed by the
blocks of DX (Hairer, Norsett and Wanner, Sec. I.14) without building DX,
and the blocks and contractions whose factor the jet reports as identically
zero (``None``; dg, d2g and dbeta on the flat chart) are skipped.  A flow
passes the jet one work dict, so a fused jet allocates its arrays once per
flow and writes into them at every call.

Recording and replay.  ``_rhs`` is the one statement of the right-hand side,
a function of the stage input and the jet's arrays, and a working set
records it once (``_Replay``): one stage runs ``_rhs`` on operands that
compute every value as numpy does and note each ufunc call, view and
assignment (``_Recording``), and every later stage of the set reads the jet
and replays the noted calls.  A replayed call's operands are bound to the
stage input and the stage slot (their views bound once per input and slot)
and, once per set, to the jet's arrays that the recording read and to one
scratch array per temporary shape (temporaries whose uses overlap get one
each), so a replayed stage has the bits of ``_rhs`` and skips its Python
work.  A set records at the first iteration in which no row's step reaches
the end of its segment; until then its stages call ``_rhs``, since a set
that a row leaves after one iteration does not repay its recording.  A
narrowed set records again.  A set replays only while the jet hands back
the arrays it recorded: from the first stage whose jet hands back others (a
composed jet does at every call) it calls ``_rhs``.  What wraps ``_rhs`` or
``_field`` is recorded with them; a recording that reads a value (a branch
on an array, a conversion) is not replayed, and its set calls ``_rhs`` at
every stage.

The integrator has one configuration: its tolerances, step budget, smallest
step and momentum cap are the module constants ``REL_TOL``, ``ABS_TOL``,
``MAX_STEPS``, ``MIN_STEP`` and ``P_CAP``, not parameters; the only option of
a flow is whether it carries the tangent map.  Where a row must stay is
decided per row: a row whose start point and path are real must stay inside
the real chart box (``CHART_EXIT``), every other row inside the chart's
complex validity region (``BLOWUP``), whatever else is in its batch.

The tangent map's |det| is taken once, from the end map.  By the chain rule
the end map is DPhi_rest(z(s)) M(s) at every point s of the path, so a
nonzero determinant at the end implies a nonzero one along the whole path.

Flow generators.  Each batched operation of the library that flows is
written once, as a generator: at each of its flows it yields a request,
a list of ``FlowRequest`` (geometry, rows, time path, tangent flag), and is
sent the list of their ``BatchFlowResult``, and it returns the
operation's value.  ``flow_many_gen`` is the one flow; the other
generators reach their flows through it with ``yield from``.  ``run(gen)``
is the public function of every operation and the one loop that answers
requests: each with one ``_integrate_path`` call per geometry object and
tangent flag (``_answer``).  ``gather(gens)`` is the one lockstep, a
generator that runs many generators and asks for all their pending flows
in one request, so ``run(gather(gens))`` merges them.  Since each row takes
its own steps, a row merged with others gets the values of its own flow,
but for the two last-bit couplings above.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import dop853 as _dop
from .geometry import ChartedGeometry

__all__ = [
    "ComplexTime",
    "BatchFlowResult",
    "FlowError",
    "raise_first_failure",
    "field_components",
    "flow_many",
    "FlowRequest",
    "flow_many_gen",
    "gather",
    "run",
]

DISK_RADIUS = 1.25  # 1 + epsilon with epsilon = 0.25

# Integrator constants; they aim at ~1e-8 end-to-end accuracy in the
# verification suites.
REL_TOL = 1e-11
ABS_TOL = 1e-13
MAX_STEPS = 100_000  # batch iterations per flow, summed over its path's segments;
                     # past it every row still moving fails TOL
MIN_STEP = 1e-14  # times max(1, segment length): below it rejected rows fail TOL
P_CAP = 1e8  # a row with |p| above it fails BLOWUP

# A row that left the chart's ``complex_radius`` (a row with a complex start
# or path), passed ``P_CAP`` or became non-finite.  This is where the chart's
# complex region ends, not where the paper's tube ends: on the unit sphere,
# rows fail where the closed-form path crosses |u| = 0.6 while r - a_3 stays
# at 1.99 or more.  Expected far from the zero-section, not a bug.
REASON_BLOWUP = "BLOWUP"
REASON_CHART_EXIT = "CHART_EXIT"  # a row with a real start and path left the chart box
REASON_TOL = "TOL"  # step size underflow, or the step budget is spent


class FlowError(RuntimeError):
    """A failed row of a batched operation; ``reason`` is its reason code."""

    @property
    def reason(self) -> str:
        return self.args[0]


def raise_first_failure(ok, reasons) -> None:
    """Raise FlowError with the reason of the first failed row of a batch's
    ``ok`` flags and ``reasons``, if a row failed."""
    failed = np.flatnonzero(~np.asarray(ok).ravel())
    if failed.size:
        raise FlowError(np.asarray(reasons, dtype=object).ravel()[failed[0]])


def _check_disk(waypoints) -> None:
    """The one disk rule, for the polylines from 0 of shape (..., K): a path
    with a non-real waypoint must keep every waypoint inside the disk of
    radius ``DISK_RADIUS`` (waypoints suffice: the disk is convex); a real
    path carries no disk constraint, since the disk bounds the analytic
    continuation only."""
    W = np.asarray(waypoints, dtype=complex)
    complex_path = (W.imag != 0.0).any(axis=-1, keepdims=True)
    if (complex_path & (np.abs(W) > DISK_RADIUS + 1e-12)).any():
        raise ValueError(f"time path outside the time disk of radius {DISK_RADIUS}")


@dataclass(frozen=True)
class ComplexTime:
    """A complex time target with a continuation path from 0.

    The path is a polyline given by its waypoints after the origin; the
    default is the single straight segment 0 -> target.  The path obeys
    ``_check_disk``.  ``-t`` is the time reversal: the mirror path from 0
    to -target.
    """

    target: complex
    path: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "target", complex(self.target))
        path = tuple(complex(w) for w in self.path) or (self.target,)
        if abs(path[-1] - self.target) > 0:
            raise ValueError("path must end at the target")
        object.__setattr__(self, "path", path)
        _check_disk(path)

    @property
    def waypoints(self):
        return (0.0 + 0.0j,) + self.path

    def __neg__(self) -> "ComplexTime":
        return ComplexTime(-self.target, tuple(-w for w in self.path))


def _time_path(t):
    """The complex polyline from 0 of a time ``t``: a ComplexTime or a number
    gives its (K,) waypoints, an (m,) array the (m, 2) straight paths from 0
    to its entries.  The target is the last waypoint.  Raises ValueError
    where ``_check_disk`` fails."""
    if np.ndim(t):
        target = np.asarray(t, dtype=complex)
        waypoints = np.stack([np.zeros_like(target), target], axis=1)
        _check_disk(waypoints)
        return waypoints
    if not isinstance(t, ComplexTime):
        t = ComplexTime(t)
    return np.asarray(t.waypoints, dtype=complex)


@dataclass
class BatchFlowResult:
    """Vectorized flow result; failed rows carry a reason code.  ``time`` is
    the common complex target, or the (m,) complex array of per-row targets.

    ``det`` is |det| of each row's end tangent map ``jac`` (nonzero there
    implies nonzero along the path, see the module docstring); ``jac`` is
    None and ``det`` NaN for a tangent-free flow.  An ok row's values are
    finite; a failed row's x, p, quad and jac are NaN in both parts, and its
    det is NaN.  ``steps`` counts the iterations over the batch of the
    integration that answered the request, summed over the path's segments;
    a request merged with others (``gather``) shares that count with them.
    ``row_steps`` and ``seconds`` belong to the request itself: the steps
    (accepted and rejected) that each of its rows attempted, and its rows'
    share of the integration's wall time, in proportion to their steps (to
    their number, if the integration made no step).
    """

    x: np.ndarray
    p: np.ndarray
    jac: Optional[np.ndarray]
    quad: np.ndarray
    ok: np.ndarray
    reasons: list
    det: np.ndarray
    steps: int
    row_steps: np.ndarray
    time: complex | np.ndarray
    seconds: float


# ---------------------------------------------------------------------------
# vector field and its derivative
# ---------------------------------------------------------------------------

def _bmm(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b over small matrices with the batch axes last: a (r, k, ...) and
    b (k, c, ...) give (r, c, ...), written into ``out`` if given.

    A Python loop over the shared index k; each term is one product over all
    rows, whose inner loop runs over the contiguous batch axis.  numpy's
    stacked matmul makes one BLAS call per matrix instead, which at 2x2 to
    4x4 costs several times the arithmetic.
    """
    out = np.multiply(a[:, 0, None], b[None, 0], out=out)
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def _dot(v: np.ndarray, a: np.ndarray, out=None) -> np.ndarray:
    """sum_j v[j] a[j]: the first axis of a against v, batch axes last."""
    out = np.multiply(v[0], a[0], out=out)
    for j in range(1, len(v)):
        out += v[j] * a[j]
    return out


def _contract_mid(d: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """sum_j d[l, j, ...] v[j] for a matrix or derivative array d with the
    batch axes last; a loop over j as in ``_bmm``.

    With d = g it is the matrix-vector product g p.  With d = dg and v = p it
    is T[l, w], the x-derivative of dx/ds; the quadratic term of dp/ds,
    sum_jk dg^{jk}/dx^l p_j p_k = sum_j p_j T[j, l], and (g being symmetric)
    that term's p-derivative, -T transposed, come from T.
    """
    out = np.multiply(d[:, 0], v[0], out=out)
    for j in range(1, d.shape[1]):
        out += d[:, j] * v[j]
    return out


def _field(g, dg, b, p, out):
    """Write dx/ds into out[:n] and dp/ds into out[n:] from the jet's g, dg
    and beta, and return T = _contract_mid(dg, p) (None where dg is).
    Batch axes last."""
    n = len(p)
    gp = _contract_mid(g, p, out[:n])
    pdot = _contract_mid(b, gp, out[n:])
    if dg is None:
        return None
    T = _contract_mid(dg, p)
    np.add(-0.5 * _dot(p, T), pdot, out=pdot)
    return T


def field_components(geo: ChartedGeometry, x: np.ndarray, p: np.ndarray):
    """(dx/ds, dp/ds) of the twisted Hamiltonian field at points x, p of
    shape (..., n), batched over the leading axes."""
    x, p = np.moveaxis(np.asarray(x), -1, 0), np.moveaxis(np.asarray(p), -1, 0)
    g, dg, b, _ = geo.jet(x, 1)
    out = np.empty((2 * len(p),) + p.shape[1:], dtype=np.result_type(g, b, p))
    _field(g, dg, b, p, out)
    return np.moveaxis(out[: len(p)], 0, -1), np.moveaxis(out[len(p) :], 0, -1)


def _rhs(geo: ChartedGeometry, Y: np.ndarray, out: np.ndarray, jet: tuple) -> np.ndarray:
    """Right-hand side for the packed state Y of shape (D, m), one column per
    row (see ``_pack``), written into the C-contiguous (D, m) array ``out``
    (a stage slot of the integrator), which it returns.

    ``jet`` is the geometry's jet at Y's points, ``geo.jet(Y[:n], order,
    work)`` with the flow's ``work`` dict, of order 2 with the tangent map
    and 1 without, read by the caller; its arrays are used within this
    call only.  The rows are the last axis, so each term of a contraction
    over the small chart indices is one operation over all m rows.  A
    tangent-free state [x, p, q] gets the field and the quadrature from the
    first-order jet.  With [x, p, q, vec(jac)] the second-order jet also
    gives the variational term DX @ jac, formed by blocks without building
    DX: with jac = [Jx; Jp], T = _contract_mid(dg, p) and
    Q = -(1/2) d2g(p, p) + dbeta . xdot,

        d(Jx) = T Jx + g Jp,    d(Jp) = Q Jx - T^T Jp + beta d(Jx).

    Derivatives the jet returns as None vanish identically, and the blocks
    they would give are skipped (on the flat chart only g Jp and beta d(Jx)
    remain).  The field, the quadrature and the blocks d(Jx) and d(Jp) are
    formed in their rows of ``out``, so a stage is never copied.
    """
    D, m = Y.shape
    n = geo.dim
    n2 = 2 * n
    p = Y[n:n2]
    g, dg, b, A = jet[:4]
    T = _field(g, dg, b, p, out[:n2])
    xdot = out[:n]
    _dot(A, xdot, out[n2])
    if D == n2 + 1:
        return out

    J = Y[n2 + 1 :].reshape(n2, n2, m)
    Jx, Jp = J[:n], J[n:]
    d2g, db = jet[4:]
    dJ = out[n2 + 1 :].reshape(n2, n2, m)
    dJx = _bmm(g, Jp, dJ[:n])
    if T is not None:
        dJx += _bmm(T, Jx)
    dJp = _bmm(b, dJx, dJ[n:])
    if T is not None:
        dJp -= _bmm(T.swapaxes(0, 1), Jp)
    Q = None
    if d2g is not None:
        Q = -0.5 * _dot(p, _dot(p, d2g))
    if db is not None:
        dbx = _contract_mid(db, xdot)
        Q = dbx if Q is None else Q + dbx
    if Q is not None:
        dJp += _bmm(Q, Jx)
    return out


# ---------------------------------------------------------------------------
# the right-hand side of a working set, recorded once and replayed
# ---------------------------------------------------------------------------

# The groups of a recording's operands, by what they are bound to: bound once
# per working set (the scalars, the jet's arrays and the temporaries' scratch
# arrays), to the stage input, or to the stage slot; a view of an operand is
# in its group.
_FIXED, _INPUT, _OUTPUT = range(3)
_SCALARS = (int, float, complex, np.generic)


def _swapaxes(a, axes):
    return a.swapaxes(*axes)


def _assign(target, value):
    """target[...] = value, as a recorded call."""
    np.copyto(target, value, casting="unsafe")


def _bind(entries, roots) -> list:
    """The arrays of one group of operands: each entry (parent, fn, arg) is
    the root ``roots[arg]`` (fn None) or the view fn(arrays[parent], arg)."""
    vals = []
    for parent, fn, arg in entries:
        vals.append(roots[arg] if fn is None else fn(vals[parent], arg))
    return vals


class _Operand(np.lib.mixins.NDArrayOperatorsMixin):
    """An array of a ``_Recording``: its value ``a``, computed as ``_rhs``
    computes it, and its index ``i`` in the recording.  Ufunc calls (numpy's
    operators among them), basic indexing, ``reshape`` and ``swapaxes`` are
    recorded, and ``shape`` and ``len`` read; any other use reads the value
    and leaves the recording unreplayable."""

    __slots__ = ("rec", "a", "i")

    def __init__(self, rec, a, i):
        self.rec, self.a, self.i = rec, a, i

    shape = property(lambda self: self.a.shape)

    def __len__(self):
        return len(self.a)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if method == "__call__" and not kwargs:
            return self.rec.call(ufunc, inputs, out)
        self.rec.replayable = False
        if out is not None:
            kwargs["out"] = tuple(o.a if o.__class__ is _Operand else o for o in out)
        return getattr(ufunc, method)(*(x.a if x.__class__ is _Operand else x
                                        for x in inputs), **kwargs)

    # the operators that _rhs uses, without numpy's dispatch
    def __mul__(self, other):
        return self.rec.call(np.multiply, (self, other), None)

    def __rmul__(self, other):
        return self.rec.call(np.multiply, (other, self), None)

    def __add__(self, other):
        return self.rec.call(np.add, (self, other), None)

    def __iadd__(self, other):
        return self.rec.call(np.add, (self, other), (self,))

    def __isub__(self, other):
        return self.rec.call(np.subtract, (self, other), (self,))

    def __getitem__(self, key):
        return self.rec.view(self, operator.getitem, key, self.a[key])

    def __setitem__(self, key, value):
        self.rec.assign(self, key, value)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        value = self.a.reshape(shape)
        return self.rec.view(self, np.ndarray.reshape, value.shape, value)

    def swapaxes(self, axis1, axis2):
        return self.rec.view(self, _swapaxes, (axis1, axis2), self.a.swapaxes(axis1, axis2))

    def _value(self):
        self.rec.replayable = False
        return self.a

    def __getattr__(self, name):
        return getattr(self._value(), name)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self._value(), dtype=dtype)

    def __bool__(self):
        return bool(self._value())


class _Recording:
    """One evaluation of ``_rhs`` on operands (``_Operand``): each value is
    computed at once, as ``_rhs`` computes it, and each ufunc call, view and
    assignment is recorded, so that ``program`` can replay it.  A recording
    that meets a use it cannot record is not ``replayable``; its values are
    still those of ``_rhs``.
    """

    def __init__(self):
        self.replayable = True
        self.nodes = []  # (group, index in the group, root) of each operand
        self.entries = ([], [], [])  # each group's entries for _bind
        self.fixed = []  # _FIXED's roots: a scalar, a jet array or a temporary's (shape, dtype)
        self.temps = []  # (operand, its index in fixed, the call that makes it)
        self.calls = []  # (fn, operand indices)

    def root(self, value, group, fixed=None) -> _Operand:
        """A new root operand: the stage input or slot, or in ``_FIXED`` a
        scalar or a jet array, bound as it is, or a temporary, whose value is
        not kept: ``fixed`` is its (shape, dtype), and it is bound to a
        scratch array."""
        entries = self.entries[group]
        arg = 0
        if group == _FIXED:
            arg = len(self.fixed)
            self.fixed.append(value if fixed is None else fixed)
        i = len(self.nodes)
        self.nodes.append((group, len(entries), i))
        entries.append((None, None, arg))
        return _Operand(self, value, i)

    def view(self, parent: _Operand, fn, arg, value):
        """The operand of ``value``, the view fn(parent, arg); a copy or a
        scalar is returned as it is, unrecorded."""
        a = parent.a
        if value.__class__ is not np.ndarray or value.base is not (a if a.base is None
                                                                  else a.base):
            self.replayable = False
            return value
        group, local, root = self.nodes[parent.i]
        entries = self.entries[group]
        i = len(self.nodes)
        self.nodes.append((group, len(entries), root))
        entries.append((local, fn, arg))
        return _Operand(self, value, i)

    def call(self, ufunc, inputs, outs):
        """ufunc(*inputs, out=outs), computed and recorded: a call with one
        output, into an operand or into a new temporary."""
        real, args = [], []
        for x in inputs:
            if x.__class__ is _Operand:
                real.append(x.a)
                args.append(x.i)
            else:
                real.append(x)
                if isinstance(x, _SCALARS):
                    args.append(self.root(x, _FIXED).i)
                else:
                    self.replayable = False
        if outs is None:
            result = ufunc(*real)
            if not self.replayable or result.__class__ is not np.ndarray:
                self.replayable = False
                return result
            out = self.root(result, _FIXED, (result.shape, result.dtype))
            self.temps.append((out.i, len(self.fixed) - 1, len(self.calls)))
        else:
            out = outs[0]
            if len(outs) != 1 or out.__class__ is not _Operand:
                self.replayable = False
                return ufunc(*real, out=tuple(o.a if o.__class__ is _Operand else o
                                              for o in outs))
            ufunc(*real, out=out.a)
            if not self.replayable:
                return out.a
        args.append(out.i)
        self.calls.append((ufunc, tuple(args)))
        return out

    def assign(self, target: _Operand, key, value):
        """target[key] = value; ``a[key] op= b`` ends with one, which numpy
        makes a copy of the view onto itself."""
        view = target[key]
        if view.__class__ is not _Operand or value.__class__ is not _Operand:
            self.replayable = False
            target.a[key] = value.a if value.__class__ is _Operand else value
            return
        _assign(view.a, value.a)
        self.calls.append((_assign, (view.i, value.i)))

    def program(self) -> tuple:
        """The recording as a program for ``_Replay``: each group's entries
        for ``_bind``; the arrays of ``_FIXED``, bound; the calls' functions;
        and the getters of their operands from the arrays of all groups, in
        group order.

        Each temporary gets a scratch array, shared by the temporaries of its
        shape and dtype whose uses do not overlap: it takes one at the call
        that makes it and gives it back after its last use, by itself or by
        a view of it."""
        nodes, calls = self.nodes, self.calls
        offsets, k = [], 0
        for entries in self.entries:
            offsets.append(k)
            k += len(entries)
        new = [offsets[g] + local for g, local, _ in nodes]
        last = {}
        for k, (_, idx) in enumerate(calls):
            for i in idx:
                last[nodes[i][2]] = k
        made, freed = [[] for _ in calls], [[] for _ in calls]
        for i, slot, k in self.temps:
            made[k].append(slot)
            freed[last[i]].append(slot)
        roots, free = list(self.fixed), {}
        for k in range(len(calls)):
            for slot in made[k]:
                pool = free.get(roots[slot])
                roots[slot] = pool.pop() if pool else np.empty(*roots[slot])
            for slot in freed[k]:
                a = roots[slot]
                free.setdefault((a.shape, a.dtype), []).append(a)
        return (self.entries, _bind(self.entries[_FIXED], roots), tuple(fn for fn, _ in calls),
                [operator.itemgetter(*[new[i] for i in idx]) for _, idx in calls])


class _Replay:
    """The right-hand side of one working set, ``rhs(Y, out)``: the values
    of ``_rhs(geo, Y, out, geo.jet(Y[:n], order, work))`` to the last bit.

    Every call reads the jet.  The first call records ``_rhs`` on its
    arrays (``_Recording``).  Every later call replays the recorded calls on
    the arrays bound to them: the views of its stage input Y and of its
    stage slot out, bound once per input and slot, and the recorded jet's
    arrays and the temporaries' scratch arrays, bound once.  A call whose
    jet hands back other arrays than the recorded ones ends the replay: it
    and every later call is ``_rhs``, as is every call after a recording
    that is not replayable.
    """

    def __init__(self, geo: ChartedGeometry, order: int, work: dict):
        self._geo, self._order, self._work = geo, order, work
        self._replayable = None  # not recorded yet

    def _record(self, Y, out, jet):
        rec = _Recording()
        # the jet's arrays are operands bound as they are, if each is an array or None
        rec.replayable = all(a is None or a.__class__ is np.ndarray for a in jet)
        ops = [None if a is None else rec.root(a, _FIXED) for a in jet] if rec.replayable else jet
        _rhs(self._geo, rec.root(Y, _INPUT), rec.root(out, _OUTPUT), ops)
        self._replayable = rec.replayable
        if rec.replayable:
            self._jet = jet
            self._entries, self._fixed, self._fns, self._getters = rec.program()
            self._views, self._tapes = {}, {}
        return out

    def _bound(self, group, root) -> list:
        """The views of the stage input or slot ``root``, bound once."""
        views = self._views.get(id(root))
        if views is None:
            views = self._views[id(root)] = (root, _bind(self._entries[group], (root,)))
        return views[1]

    def __call__(self, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
        n = self._geo.dim
        if not self._replayable:
            jet = self._geo.jet(Y[:n], self._order, self._work)
            if self._replayable is None:
                return self._record(Y, out, jet)
            return _rhs(self._geo, Y, out, jet)
        key = (id(Y), id(out))
        tape = self._tapes.get(key)
        if tape is None:  # the jet's point and each call's arrays, for Y and out
            arr = self._fixed + self._bound(_INPUT, Y) + self._bound(_OUTPUT, out)
            tape = self._tapes[key] = (Y[:n], [get(arr) for get in self._getters])
        x, args = tape
        jet = self._geo.jet(x, self._order, self._work)
        if len(jet) != len(self._jet) or not all(map(operator.is_, jet, self._jet)):
            self._replayable = False  # the jet handed back other arrays: the replay ends
            return _rhs(self._geo, Y, out, jet)
        for fn, a in zip(self._fns, args):
            fn(*a)
        return out


# ---------------------------------------------------------------------------
# DOP853 8(5,3), complex state, batched over the rows still moving
# ---------------------------------------------------------------------------

# Stage i of a step is stored in slot _SLOT[i] of the stage array.  With the
# first three stages reversed, the nonzero weights of every combination of
# stages (a stage's input; the solution and its two error estimates) lie in
# one contiguous run of slots, so a combination is one matrix product over
# that run and the zero weights outside it are never read: 52 stage reads
# per step for the stage inputs instead of 66, and 10 instead of 12 for the
# solution.  The order is its own inverse: slot j holds stage _SLOT[j].
# Every slot inside a run must already hold a stage of the current step,
# because a zero weight times an unset slot of ``np.empty`` can be NaN.
_SLOT = (2, 1, 0) + tuple(range(3, _dop.N_STAGES))


def _slot_run(weights):
    """(lo, hi, w) for a combination of stages: the run of slots [lo, hi)
    that holds every stage with a nonzero weight, and the weights of the
    run's slots.  ``weights`` is one row of stage weights, or a matrix of
    rows combined over one shared run."""
    w = np.asarray(weights)[..., _SLOT]
    used = np.flatnonzero(np.atleast_2d(w).any(axis=0))
    lo, hi = int(used[0]), int(used[-1]) + 1
    return lo, hi, np.ascontiguousarray(w[..., lo:hi])


# (slot, lo, hi, w) of the stages 1..11: stage i is formed from
# w @ K[lo:hi] and stored in K[slot]
_STAGE_RUNS = tuple((_SLOT[i],) + _slot_run(_dop.A[i]) for i in range(1, _dop.N_STAGES))
# the 8th-order solution (row 0) and the 5th- and 3rd-order error estimates
_STEP_RUN = _slot_run(np.stack([_dop.B, _dop.E5, _dop.E3]))


def _pack(Z0: np.ndarray, n: int, tangent: bool) -> np.ndarray:
    """Start state of the rows Z0 (m, 2n), rows last: a (D, m) array whose
    column r is [x, p, q = 0] of row r, followed by vec(jac) = vec(1) if the
    tangent map is carried."""
    m = Z0.shape[0]
    D = 2 * n + 1 + (4 * n * n if tangent else 0)
    Y = np.zeros((D, m), dtype=complex)
    Y[: 2 * n] = Z0.T
    if tangent:
        Y[2 * n + 1 :] = np.eye(2 * n, dtype=complex).reshape(-1, 1)
    return Y


def _check_rows(geo, Y, real_rows):
    """Per-row validity of the (D, m) state against the ``REASON_*`` rules;
    returns (bad mask, reason array), the reasons None when no row is bad."""
    n = geo.dim
    x = Y[:n]
    p = Y[n : 2 * n]
    finite = np.isfinite(Y).all(axis=0)
    chart_bad = np.where(
        real_rows,
        (np.abs(x.real) >= geo.chart_box).any(axis=0),
        (np.abs(x) >= geo.complex_radius).any(axis=0),
    )
    p_bad = (np.abs(p) > P_CAP).any(axis=0) | ~finite
    bad = chart_bad | p_bad
    if not bad.any():
        return bad, None
    reason_chart = np.where(real_rows, REASON_CHART_EXIT, REASON_BLOWUP)
    return bad, np.where(p_bad, REASON_BLOWUP, np.where(chart_bad, reason_chart, ""))


def _step_factors(err: np.ndarray) -> np.ndarray:
    """Each row's next step over this one: 0.9 err^(-1/8), clamped to
    [0.2, 10] (10 at a zero error)."""
    with np.errstate(divide="ignore"):
        return np.minimum(10.0, np.maximum(0.2, 0.9 * err ** (-1.0 / 8.0)))


def _error_norms(abs_y, abs_new, y_new, err5, err3, h, scale, work):
    """Hairer's combined 5th/3rd-order error norm of each row (column) of the
    (D, m) state.

    abs_y and abs_new are |Y| and |y_new|; err5 and err3 are the unscaled
    estimator sums (without the step) and h holds each row's step; a row's
    norm is h |e5|^2 / sqrt(D (|e5|^2 + 0.01 |e3|^2)) with both errors
    divided componentwise by ABS_TOL + REL_TOL max(|Y|, |y_new|).
    Non-finite rows get an infinite norm.  ``scale`` and ``work`` are (D, m)
    float arrays that it overwrites.
    """
    np.maximum(abs_y, abs_new, out=scale)
    np.multiply(REL_TOL, scale, out=scale)
    np.add(ABS_TOL, scale, out=scale)
    with np.errstate(divide="ignore"):
        np.abs(err5, out=work)
        e5 = np.square(np.divide(work, scale, out=work), out=work).sum(axis=0)
        np.abs(err3, out=work)
        e3 = np.square(np.divide(work, scale, out=work), out=work).sum(axis=0)
        denom = e5 + 0.01 * e3
        err_row = h * e5 / np.sqrt(denom * abs_y.shape[0])
    err_row[denom == 0.0] = 0.0
    err_row[~np.isfinite(err_row) | ~np.isfinite(y_new).all(axis=0)] = np.inf
    return err_row


def _segments(W: np.ndarray):
    """The segments of the (m, K) polylines W: their lengths and unit
    directions, (m, K - 1) each.  |seg| and seg / |seg| are formed as
    Python's complex abs and complex / float form them (hypot; Smith's rule
    with a zero imaginary divisor), to the last bit and the sign of zero."""
    seg = W[:, 1:] - W[:, :-1]
    length = np.hypot(seg.real, seg.imag)
    direction = np.zeros_like(seg)
    with np.errstate(invalid="ignore", divide="ignore"):  # a zero segment is never entered
        direction.real = (seg.real + seg.imag * 0.0) / length
        direction.imag = (seg.imag - seg.real * 0.0) / length
    return length, direction


def _work_arrays(D: int, m: int) -> tuple:
    """The integrator's arrays for m working rows of a D-component state: the
    stages K (12, D, m), the stage input S (D, m), the solution and its two
    error sums E (3, D, m), the state and the next state (D, m), and four
    (D, m) float arrays for |state|, |next state| and the error norm's
    temporaries."""
    return (np.empty((_dop.N_STAGES, D, m), dtype=complex),
            np.empty((D, m), dtype=complex), np.empty((3, D, m), dtype=complex),
            *(np.empty((D, m), dtype=complex) for _ in range(2)),
            *(np.empty((D, m)) for _ in range(4)))


def _stage_views(K: np.ndarray, S: np.ndarray, E: np.ndarray) -> tuple:
    """The views that combine the stages of a working set's K, S and E:
    stage 0's slot; each later stage's slot, the run of slots its input
    reads (real view) and that run's weights (``_STAGE_RUNS``); the stage
    input as a real view; and the step's weights, run and solution with its
    error sums as a real view (``_STEP_RUN``)."""
    Kr = K.reshape(_dop.N_STAGES, -1).view(np.float64)
    lo, hi, w = _STEP_RUN
    return (K[_SLOT[0]],
            tuple((K[slot], Kr[a:b], weights) for slot, a, b, weights in _STAGE_RUNS),
            S.reshape(-1).view(np.float64),
            (w, Kr[lo:hi], E.reshape(3, -1).view(np.float64)))


def _narrow(a: np.ndarray, k: int) -> np.ndarray:
    """The work array a, C-contiguous, for its first k rows: the first
    entries of its memory as a C-contiguous (..., k) array."""
    lead = a.shape[:-1]
    return a.reshape(-1)[: math.prod(lead) * k].reshape(lead + (k,))


class _StepCount(int):
    """The number of batch iterations of a flow, an int, with ``rows``: the
    (m,) number of steps each row attempted."""

    def __new__(cls, steps: int, rows: np.ndarray):
        self = super().__new__(cls, steps)
        self.rows = rows
        return self


def _integrate_path(
    geo: ChartedGeometry,
    Z0: np.ndarray,
    waypoints: Sequence[complex],
    *,
    tangent: bool = True,
):
    """Integrate the packed system along complex-time polylines.

    Z0: (m, 2n) complex start states.  ``waypoints`` (K,) is one polyline
    for every row; (m, K) gives each row its own.  A row whose start state
    and path are real is checked against the real chart box, any other row
    against the complex validity region (``_check_rows``).  The state is
    integrated rows last, (D, m) (see ``_rhs``).  Returns (Y, ok, reasons,
    det, steps), with Y the (m, D) packed end states, one row per row of Z0,
    det the |det| of each row's end tangent map, and steps the number of
    batch iterations, summed over the segments (an int whose ``rows`` holds
    each row's attempted steps, ``_StepCount``).  The tangent map (and with
    it det, NaN otherwise) is carried only if ``tangent``.

    The polylines are integrated one segment at a time, each on the rows
    that are still ok and have a nonzero length on it.  Step control is per
    row (Hairer, Norsett and Wanner, Sec. II.4): each row has its own step
    size and position on the segment, and is accepted or rejected by its
    own error norm (``_error_norms``).  A row starts a segment with the step
    min(0.1, length) and fails ``TOL`` when a step at or below MIN_STEP
    max(1, length) is rejected.  A row that reaches the end of the segment
    or fails leaves the working rows at once: its column is written back
    into the packed start state, which becomes the end state, and the rows
    still moving are gathered into the first columns of the work arrays.
    Each row is thus computed as it would be alone, but for two last-bit
    couplings: ``np.matmul`` may round the stage combinations differently by
    column position, and numpy sums ``_error_norms``' columns pairwise when
    one row moves alone and in order otherwise.  A failed row is complex NaN
    (NaN in both parts), so its x, p, quad, jac and det are NaN: the flow
    gives a failed row no value.

    The work arrays are allocated once per call, for all m rows, and the
    working rows use their first entries (``_narrow``); every step is formed
    in them (see the module docstring and ``_SLOT``), and |Y| is carried
    over from the accepted |y_new|.  Each working set makes its views that
    combine the stages once (``_stage_views``) and records its right-hand
    side once (``_Replay``), at the first iteration in which no row's step
    reaches the end of its segment.
    """
    Z0 = np.asarray(Z0, dtype=complex)
    m = Z0.shape[0]
    n = geo.dim
    W = np.asarray(waypoints, dtype=complex)
    W = np.broadcast_to(W, (m, W.shape[-1]))
    seg_length, seg_direction = _segments(W)
    real_rows = (Z0.imag == 0.0).all(axis=1) & (W.imag == 0.0).all(axis=1)
    Y = _pack(Z0, n, tangent)
    D = Y.shape[0]
    reasons = np.array([""] * m, dtype=object)
    row_steps = np.zeros(m, dtype=int)
    steps = 0
    bad, why = _check_rows(geo, Y, real_rows)
    if bad.any():
        reasons[bad] = why[bad]
        Y[:, bad] = complex(np.nan, np.nan)

    # K[_SLOT[i]] holds the field at stage i; stage 0 is the field at Yw, the
    # working rows' state.  S is the stage input, E the solution and error
    # sums, Y_new the next state; the combinations run on real views of K, S
    # and E.  jet_work holds the geometry jet's arrays.
    arrays = _work_arrays(D, m)
    jet_work = {}
    order = 2 if tangent else 1

    def evaluate(Y, out):  # a stage of a set that is not recorded (yet)
        return _rhs(geo, Y, out, geo.jet(Y[:n], order, jet_work))

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(seg_length.shape[1]):
            # the working rows: column i is row rows[i], at arc position s[i]
            # of its segment's length[i], with step h[i] along direction[i]
            rows = np.flatnonzero((reasons == "") & (seg_length[:, j] > 0))
            if not rows.size:
                continue
            K, S, E, Yw, Y_new, abs_y, abs_new, scale, work = (
                _narrow(a, rows.size) for a in arrays)
            Y.take(rows, axis=1, out=Yw)
            np.abs(Yw, out=abs_y)
            real, length, direction = real_rows[rows], seg_length[rows, j], seg_direction[rows, j]
            s = np.zeros(rows.size)
            h = np.minimum(0.1, length)
            start = steps
            rhs = views = None
            while True:
                if views is None:  # a new working set
                    views = _stage_views(K, S, E)
                    first, runs, Sr, (w_step, K_step, Er) = views
                # the set records its right-hand side at the first iteration
                # in which no row's step reaches the end of its segment; a set
                # that a row leaves after one iteration is not worth recording
                if rhs is None and (h < length - s).all():
                    rhs = _Replay(geo, order, jet_work)
                if steps == MAX_STEPS:
                    arrived = np.zeros(rows.size, dtype=bool)
                    failed, why = ~arrived, REASON_TOL
                else:
                    steps += 1
                    np.minimum(h, length - s, out=h)
                    H = h * direction
                    stage = evaluate if rhs is None else rhs
                    stage(Yw, first)
                    for out, K_run, w in runs:
                        np.matmul(w, K_run, out=Sr)
                        np.multiply(H, S, out=S)
                        np.add(Yw, S, out=S)
                        stage(S, out)
                    np.matmul(w_step, K_step, out=Er)
                    np.multiply(H, E[0], out=Y_new)
                    np.add(Yw, Y_new, out=Y_new)
                    np.abs(Y_new, out=abs_new)
                    err = _error_norms(abs_y, abs_new, Y_new, E[1], E[2], h, scale, work)
                    accept = err <= 1.0
                    n_accept = np.count_nonzero(accept)
                    failed, why = np.zeros(rows.size, dtype=bool), REASON_TOL
                    if n_accept < rows.size:
                        # a rejected row keeps its state; one that cannot be
                        # resolved above its smallest step fails
                        reject = ~accept
                        failed = reject & (h <= MIN_STEP * np.maximum(1.0, length))
                        if n_accept:
                            Y_new[:, reject] = Yw[:, reject]
                            abs_new[:, reject] = abs_y[:, reject]
                    if n_accept:
                        np.add(s, h, out=s, where=accept)
                        Yw, Y_new = Y_new, Yw
                        abs_y, abs_new = abs_new, abs_y
                        bad, bad_why = _check_rows(geo, Yw, real)
                        bad &= accept
                        if bad.any():
                            why = np.where(bad, bad_why, REASON_TOL)
                            failed |= bad
                            accept &= ~bad
                    h *= _step_factors(err)
                    arrived = accept & (s >= length)
                leave = arrived | failed
                if not leave.any():
                    continue
                row_steps[rows[leave]] += steps - start
                Y[:, rows[arrived]] = Yw[:, arrived]
                if failed.any():
                    reasons[rows[failed]] = np.broadcast_to(why, failed.shape)[failed]
                    Y[:, rows[failed]] = complex(np.nan, np.nan)
                keep = np.flatnonzero(~leave)
                if not keep.size:
                    break
                # gather the rows still moving into the first entries of the
                # work arrays, the state and |state| into the next state's
                k = keep.size
                rows, real, length, direction, s, h = (
                    a[keep] for a in (rows, real, length, direction, s, h))
                Yw, Y_new = Yw.take(keep, axis=1, out=_narrow(Y_new, k)), _narrow(Yw, k)
                abs_y, abs_new = (abs_y.take(keep, axis=1, out=_narrow(abs_new, k)),
                                  _narrow(abs_y, k))
                K, S, E, scale, work = (_narrow(a, k) for a in (K, S, E, scale, work))
                rhs = views = None

    ok = reasons == ""
    Y = Y.T
    if tangent:
        with np.errstate(invalid="ignore"):  # a failed row's map is NaN
            det = np.abs(np.linalg.det(Y[:, 2 * n + 1 :].reshape(m, 2 * n, 2 * n)))
    else:
        det = np.full(m, np.nan)
    return Y, ok, [r if r else None for r in reasons], det, _StepCount(steps, row_steps)


# ---------------------------------------------------------------------------
# flow generators and the plan that answers them
# ---------------------------------------------------------------------------

class FlowRequest(NamedTuple):
    """One flow that a flow generator asks for: the rows Z0 (m, 2n) of
    ``geo`` along ``waypoints``, one (K,) polyline from 0 for every row or
    (m, K) per row, with the tangent map if ``tangent``.  The result's
    ``time`` is the last waypoint."""

    geo: ChartedGeometry
    Z0: np.ndarray
    waypoints: np.ndarray
    tangent: bool


def flow_many_gen(geo: ChartedGeometry, Z0: np.ndarray, t, *, tangent: bool = True):
    """``flow_many`` as a flow generator: it asks for its one flow and
    returns the BatchFlowResult it is sent (see ``run``)."""
    (res,) = yield [FlowRequest(geo, np.asarray(Z0, dtype=complex), _time_path(t), tangent)]
    return res


def _result(req: FlowRequest, Y, ok, reasons, det, steps, row_steps, seconds) -> BatchFlowResult:
    """The BatchFlowResult of ``req`` from its rows of an integration's
    (m, D) end states and flags, the integration's ``steps`` and the
    request's ``seconds``."""
    n = req.geo.dim
    return BatchFlowResult(
        x=Y[:, :n],
        p=Y[:, n : 2 * n],
        jac=Y[:, 2 * n + 1 :].reshape(-1, 2 * n, 2 * n) if req.tangent else None,
        quad=Y[:, 2 * n],
        ok=ok,
        reasons=reasons,
        det=det,
        steps=int(steps),
        row_steps=row_steps,
        time=req.waypoints[..., -1],
        seconds=seconds,
    )


def _stacked(reqs: list):
    """The start rows and polylines of one integration for requests on one
    geometry and tangent flag: the rows stacked in order and each row's
    polyline padded to the longest by repeating its last waypoint (a
    zero-length segment is never entered)."""
    K = max(req.waypoints.shape[-1] for req in reqs)
    paths = [np.broadcast_to(req.waypoints, (len(req.Z0), req.waypoints.shape[-1]))
             for req in reqs]
    paths = [W if W.shape[1] == K else
             np.concatenate([W, np.repeat(W[:, -1:], K - W.shape[1], axis=1)], axis=1)
             for W in paths]
    return np.concatenate([req.Z0 for req in reqs]), np.concatenate(paths)


def _answer(requests: list) -> list:
    """The BatchFlowResult of each of ``requests``, from one
    ``_integrate_path`` call per geometry object and tangent flag
    (``_stacked``): each request gets its rows of the end states, the
    call's ``steps``, and the call's wall time in the share of its rows'
    steps (of its rows, if the call made no step) as its ``seconds``."""
    results = [None] * len(requests)
    groups = {}
    for i, req in enumerate(requests):
        groups.setdefault((id(req.geo), req.tangent), []).append(i)
    for members in groups.values():
        reqs = [requests[i] for i in members]
        t0 = perf_counter()
        # through the module global, which a tracer may rebind
        Y, ok, reasons, det, steps = _integrate_path(reqs[0].geo, *_stacked(reqs),
                                                     tangent=reqs[0].tangent)
        spent = perf_counter() - t0
        total, lo = steps.rows.sum(), 0
        for i, req in zip(members, reqs):
            hi = lo + len(req.Z0)
            share = steps.rows[lo:hi].sum() / total if total else (hi - lo) / max(len(ok), 1)
            results[i] = _result(req, Y[lo:hi], ok[lo:hi], reasons[lo:hi], det[lo:hi], steps,
                                 steps.rows[lo:hi], spent * share)
            lo = hi
    return results


def gather(gens):
    """A flow generator that runs the flow generators ``gens`` in lockstep
    and returns their values, in order.

    Each is run to its first request before the next one starts (a
    generator that asks for no flow runs to its end when it starts).  Each
    round then asks for the pending flows of all of them in one request, in
    generator order, and sends each generator its results.
    """
    gens = list(gens)
    values, pending = [None] * len(gens), {}

    def advance(i: int, results) -> None:
        try:
            pending[i] = gens[i].send(results)
        except StopIteration as stop:
            values[i] = stop.value
            pending.pop(i, None)

    for i in range(len(gens)):
        advance(i, None)
    while pending:
        results = yield [req for request in pending.values() for req in request]
        k = 0
        for i, request in list(pending.items()):
            advance(i, results[k : k + len(request)])
            k += len(request)
    return values


def run(gen):
    """Run the flow generator ``gen`` to its end and return its value.

    Each request it yields is answered by ``_answer``, with one
    ``_integrate_path`` call per geometry object and tangent flag, and the
    results are sent back; ``run(gather(gens))`` is the flow plan of many
    generators.  An exception raised in the generator propagates.
    """
    results = None
    while True:
        try:
            request = gen.send(results)
        except StopIteration as stop:
            return stop.value
        results = _answer(request)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def flow_many(
    geo: ChartedGeometry,
    Z0: np.ndarray,
    t,
    *,
    tangent: bool = True,
) -> BatchFlowResult:
    """Flow a batch of phase points (rows of Z0 = [x, p]) in one integration.

    ``t`` is a common time (a number, or a ComplexTime with its path) or an
    (m,) array of per-row targets, each reached along the straight path from
    0; every library operation passes its time here unchanged, and reverses
    it as ``-t``.  Every form obeys the one disk rule, ``_check_disk``.
    Rows that fail are reported through ``ok`` and ``reasons`` instead of
    raising, and their values are NaN in both parts.  The region is decided
    per row: a real row on a real path must stay inside the chart box (else
    ``CHART_EXIT``), every other row inside the complex validity region
    (else ``BLOWUP``).  With ``tangent=False`` only the phase point and the
    quadrature are integrated: ``jac`` is None and ``det`` NaN, and neither
    the field Jacobian nor the geometry's second derivatives are evaluated.
    """
    return run(flow_many_gen(geo, Z0, t, tangent=tangent))
