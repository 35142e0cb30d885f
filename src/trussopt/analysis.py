"""Linear-elastic truss analysis by the direct stiffness method.

All per-geometry quantities (member lengths, direction cosines, dof
scatter indices, gather indices, the constraint table) are precomputed
once per model in an Analyzer, so that repeated analyses of different
designs only pay for the stiffness assembly and a banded Cholesky solve.
The reduced stiffness is assembled straight into LAPACK lower band form
and factored and solved with pbtrf/pbtrs. Natural dof order keeps the
band narrow on the built-in models (half-bandwidth 5-23), where pbtrf
works the band one column at a time, so a result does not depend on the
BLAS thread count. The loads sit in a right-hand side with one zero row
below the free dofs, which the solve leaves alone and every fixed dof
reads, so a design's padded solution, its load cases end to end, feeds
the post-solve with no response array in between.

One post-solve kernel (`Analyzer._margins`) serves one design or a
stack: from the padded solution it gives the stresses and the normalized
margin of every constraint row; labels for those rows are built only on
request. `analyze` takes the response, one [stresses | displacements]
row per load case, from it, and `evaluate`, the optimizer's evaluation,
keeps only (weight, violation total).
`evaluate` scores a design that `factorize` finds singular (a mechanism)
as its clamped areas with inf weight and inf violation total.
`evaluate_many` factors and solves each design of a batch on its own
(every singularity check stays in `factorize`) and runs the kernel once
over the stack. Each entry is exactly what `evaluate` returns for that
design: the kernel's takes along the last axis, elementwise arithmetic
and sums of each element's six products give a design the same bits
alone as in a stack, and each weight and violation total is its own sum
over the 1-D sequence that `evaluate` sums (one sum along an axis of the
stack would change last bits). Everything is pure in the design vector,
so analyses may run concurrently.

pbtrf and pbtrs are taken straight from scipy's Fortran LAPACK
extension, scipy.linalg._flapack (`_lapack_routines`), not imported
through scipy.linalg.lapack: that import runs all of scipy.linalg's
package initialiser, whose array-API shim also imports numpy.f2py,
numpy.testing and numpy.ma. It took 160-240 ms on a 2-core Linux
container with scipy 1.17, about 60% of the start-up of a `trussopt`
command, which runs in a fresh interpreter. The Fortran code is the same
either way, so results are too.
"""

import importlib.util
import os
import sys
import weakref
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from itertools import chain
from operator import itemgetter

import numpy as np

from .model import DOF_NAMES, ModelError, TrussModel, clamp


def _lapack_routines():
    """dpbtrf and dpbtrs of scipy's LAPACK extension scipy.linalg._flapack,
    which scipy.linalg.lapack re-exports. An extension already imported
    is used as it is; otherwise it is loaded from its file in scipy's
    linalg directory, found without importing scipy, so neither scipy's
    nor scipy.linalg's package initialiser runs. It is a single-phase
    extension, which the interpreter initialises once per process, so a
    later `import scipy.linalg` exposes these same two objects. Should
    any step fail (another scipy layout), the public import is used."""
    name = "scipy.linalg._flapack"
    try:
        flapack = sys.modules.get(name)
        if flapack is None:
            scipy_dir, = importlib.util.find_spec("scipy").submodule_search_locations
            finder = FileFinder(os.path.join(scipy_dir, "linalg"),
                                (ExtensionFileLoader, EXTENSION_SUFFIXES))
            spec = finder.find_spec(name)
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
        return flapack.dpbtrf, flapack.dpbtrs
    # a spec or attribute not found, a scipy that is not one directory,
    # an extension that does not load
    except (AttributeError, TypeError, ValueError, ImportError):
        from scipy.linalg.lapack import dpbtrf, dpbtrs
        return dpbtrf, dpbtrs


dpbtrf, dpbtrs = _lapack_routines()


class AnalysisError(Exception):
    pass


class SingularStructure(AnalysisError):
    """Reduced stiffness matrix is (numerically) singular: the structure
    is a mechanism, not merely a bad candidate design."""


# pivot threshold relative to the largest stiffness diagonal entry
SINGULARITY_RTOL = 1e-10


@dataclass(frozen=True)
class LoadCaseResult:
    displacements: np.ndarray     # (n_nodes, 3) inches, fixed dofs exactly 0
    element_stresses: np.ndarray  # (n_elements,) ksi, tension positive


@dataclass(frozen=True)
class AnalysisResult:
    weight: float          # lb
    response: np.ndarray   # (n_cases, n_el + 3 * n_nodes), model case order:
                           # element stresses, then nodal displacements
    n_elements: int
    margins: np.ndarray    # (n_cases, n_rows) g = quantity/limit - 1 over
                           # the constraint table

    @property
    def cases(self):
        """One LoadCaseResult per load case: views into `response`."""
        n_el = self.n_elements
        return tuple(LoadCaseResult(displacements=row[n_el:].reshape(-1, 3),
                                    element_stresses=row[:n_el])
                     for row in self.response)


# the 21 pairs p <= q of an element's symmetric 6x6 block
_BLOCK_P, _BLOCK_Q = np.triu_indices(6)


class Analyzer:
    """Per-model precomputation for fast repeated analysis.

    Its constraint table holds every constraint row of every load case. A
    row whose limit is infinite (a buckling row in tension, or a stress
    a group leaves unlimited) reads g = -1 and never binds: it is listed
    like any other row and adds 0 to a violation total."""

    def __init__(self, model: TrussModel):
        ndof = 3 * model.n_nodes
        n_el = model.n_elements
        # the (a, b, group) triples read once; validate keeps every end and
        # group in range (so int64 holds them) and every length finite and
        # nonzero. The group column is copied out contiguous for evaluations
        abg = np.fromiter(chain.from_iterable(model.elements), dtype=int,
                          count=3 * n_el).reshape(n_el, 3)
        self.group_of = abg[:, 2].copy()
        ends = abg[:, :2]
        xyz = model.coords[ends]                           # (n_el, 2, 3)
        delta = xyz[:, 1] - xyz[:, 0]
        # np.linalg.norm(delta, axis=1) computes exactly this
        self.lengths = np.sqrt((delta * delta).sum(axis=1))
        dirs = delta / self.lengths[:, None]               # (n_el, 3) unit vectors
        self.area_lo, self.area_hi = model.area_bounds()  # evaluate clamps

        # signed 6-vector d per element: displacement u6 . d = axial elongation
        d6 = np.concatenate((-dirs, dirs), axis=1)         # (n_el, 6)
        # the x, y, z dofs of end a, then of end b
        dofs = (3 * ends[:, :, None] + np.arange(3)).reshape(n_el, 6)

        self.free = ~model.fixed_dof_mask()
        self.n_free = int(self.free.sum())
        # position of each global dof inside the reduced system (-1 if fixed)
        pos = -np.ones(ndof, dtype=int)
        pos[self.free] = np.arange(self.n_free)

        # scatter indices of each element's 6x6 block into the lower band
        # of the reduced matrix: entry (i, j), i >= j, goes to band[i - j, j]
        # of a (kd + 1, n_free) array, stored column by column as LAPACK
        # reads it. The block is symmetric, so its 21 pairs p <= q give
        # each lower entry once; contributions touching fixed dofs are
        # dropped. A band entry gets at most one term per element, in
        # element order, so the order within a block does not matter
        p, q = _BLOCK_P, _BLOCK_Q
        at_p, at_q = pos[dofs[:, p]], pos[dofs[:, q]]       # (n_el, 21)
        rows, cols = np.maximum(at_p, at_q), np.minimum(at_p, at_q)
        keep = cols >= 0
        self.kd = int((rows - cols)[keep].max(initial=0))
        self._scatter_idx = (cols * self.kd + rows)[keep]
        self._scatter_coeff = (d6[:, p] * d6[:, q])[keep]
        self._scatter_el = np.nonzero(keep)[0]             # element of each entry

        self.E = model.material.elastic_modulus
        self.density = model.material.weight_density

        # load vectors, one column per load case; add.at accumulates
        # repeated (dof, case) entries in load order. The right-hand side
        # holds them on the free dofs in Fortran order, as pbtrs reads it,
        # with one more row of zeros: pbtrs takes n from the band, so it
        # leaves that row alone, and every fixed dof reads it
        n_cases = len(model.load_cases)
        loads = list(chain.from_iterable(model.load_cases))
        case = np.repeat(np.arange(n_cases), list(map(len, model.load_cases)))
        node = np.fromiter(map(itemgetter(0), loads), dtype=int, count=len(loads))
        forces = np.array(list(map(itemgetter(1), loads)), dtype=float)
        F = np.zeros((ndof, n_cases))
        np.add.at(F, (3 * node[:, None] + np.arange(3), case[:, None]),
                  forces.reshape(-1, 3))
        self._rhs = np.zeros((self.n_free + 1, n_cases), order="F")
        self._rhs[:-1] = F[self.free]
        self._rhs.flags.writeable = False
        # row of each global dof in the padded solution: the zero row if fixed
        dof_row = np.where(self.free, pos, self.n_free)

        # flat indices into the padded solution, its load cases end to
        # end (validate requires at least one): the six dofs of each
        # element of each case, stacked as the stress kernel reads them;
        # it sums each row of six on its own
        n_pad = self.n_free + 1
        case_pad = np.arange(0, n_cases * n_pad, n_pad)[:, None]
        self._elem_take = (case_pad[:, :, None] + dof_row[dofs]).reshape(-1, 6)
        self._d6_stacked = np.concatenate([d6] * n_cases)  # (n_cases * n_el, 6)
        self._lengths_stacked = np.concatenate([self.lengths] * n_cases)

        # the constraint table, one row per constraint of a load case: each
        # element's stress, followed by its Euler buckling bound if its
        # group buckles, then the displacement limits in sorted (node, dof)
        # order. A row reads column `source` of a load case's
        # [stresses | padded solution] row and divides it by the limit of
        # the same sign. Per group: the tension limit, the negated
        # compression limit, and the buckling constant K, nan where the
        # group does not buckle
        upper, lower, K = np.array(
            [(g.stress_tension_limit, -g.stress_compression_limit,
              np.nan if g.buckling_k is None else g.buckling_k)
             for g in model.groups], dtype=float).reshape(-1, 3).T
        buckles = ~np.isnan(K[self.group_of])
        rows = 1 + buckles                 # an element's rows: 1 or 2
        member_source = np.repeat(np.arange(n_el), rows)
        member_group = self.group_of[member_source]
        self.buckling_row = (np.cumsum(rows) - 1)[buckles]
        limits = model.displacement_limits
        self._limit_dofs = np.array(
            [3 * nid + DOF_NAMES.index(dof) for nodes, dofs, _ in limits
             for nid in sorted(nodes) for dof in sorted(dofs)], dtype=int)
        limit = np.repeat([lim for _, _, lim in limits],
                          [len(nodes) * len(dofs) for nodes, dofs, _ in limits])
        self.row_source = np.concatenate((member_source,
                                          n_el + dof_row[self._limit_dofs]))
        self.row_upper = np.concatenate((upper[member_group], limit))
        self.row_lower = np.concatenate((lower[member_group], -limit))
        # lower is -K*E*A/L^2 on a buckling row, set per design; in
        # tension its limit is inf
        self.row_upper[self.buckling_row] = np.inf
        self.row_lower[self.buckling_row] = np.nan
        buckling_el = self.row_source[self.buckling_row]
        self.buckling_group = self.group_of[buckling_el]
        self.buckling_coeff = -K[self.buckling_group] * self.E
        self.buckling_L2 = self.lengths[buckling_el] ** 2
        # flat indices into a design's source, its stresses of every case
        # and then its padded solution: every (case, row) of the constraint
        # table, and each case's response row of stresses and all dofs
        stress_at = np.arange(n_cases * n_el).reshape(n_cases, n_el)
        solution_at = n_cases * n_el + case_pad
        self._q_take = np.concatenate((stress_at[:, member_source],
                                       solution_at + dof_row[self._limit_dofs]),
                                      axis=1)
        self._response_take = np.concatenate((stress_at, solution_at + dof_row),
                                             axis=1)

    def structure_weight(self, areas):
        """Total weight: density * sum over elements of area * length."""
        areas = np.asarray(areas, dtype=float)
        return float(self.density * (areas[self.group_of] * self.lengths).sum())

    def assemble(self, areas):
        """Reduced (free-dof) global stiffness at a design, in LAPACK lower
        band form: a (kd + 1, n_free) array whose row r holds the r-th
        subdiagonal, band[i - j, j] = K[i, j] for 0 <= i - j <= kd."""
        areas = np.asarray(areas, dtype=float)
        k_axial = self.E * areas[self.group_of] / self.lengths  # (n_el,)
        # scatter-add all element (E*A/L) * d d^T blocks in one bincount
        vals = k_axial[self._scatter_el] * self._scatter_coeff
        band = np.bincount(self._scatter_idx, weights=vals,
                           minlength=(self.kd + 1) * self.n_free)
        return band.reshape(self.n_free, self.kd + 1).T

    def factorize(self, areas):
        """Lower banded Cholesky factor of the reduced stiffness at a
        design, in the band form of `assemble`."""
        band = self.assemble(areas)
        # the diagonal is band row 0; read it before pbtrf overwrites it
        diag_max = band[0].max(initial=0.0)
        if diag_max <= 0:
            raise SingularStructure("stiffness matrix has no positive diagonal")
        c, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise SingularStructure("Cholesky factorization failed")
        pivots = c[0] ** 2
        if pivots.min() < SINGULARITY_RTOL * diag_max:
            raise SingularStructure("pivot below singularity tolerance")
        return c

    def analyze(self, areas):
        """Weight, the response array of every load case, and the
        normalized constraints g = quantity/limit - 1 over the constraint
        table (see `_margins`)."""
        areas = np.asarray(areas, dtype=float)
        source, _, _, margins = self._margins(areas, self._solve(areas))
        return AnalysisResult(weight=self.structure_weight(areas),
                              response=source.take(self._response_take),
                              n_elements=len(self.lengths),
                              margins=margins)

    def evaluate(self, areas):
        """The optimizer's evaluation: (areas clamped to their bounds,
        weight, total violation). The total sums max(g, 0) over every
        margin, as `penalty.evaluate_constraints` does over an `analyze`
        result, bit for bit. Where `factorize` raises SingularStructure,
        both weight and total are inf."""
        areas = clamp(np.asarray(areas, dtype=float), self.area_lo, self.area_hi)
        try:
            X = self._solve(areas)
        except SingularStructure:
            return areas, np.inf, np.inf
        margins = self._margins(areas, X)[-1]
        return self._evaluation(areas, margins)

    def evaluate_many(self, designs):
        """`evaluate` over the rows of a (B, n_groups) array: a list with
        what `evaluate` returns for each design, bit for bit, a singular
        one included. Each design is factored and solved on its own,
        `_margins` runs once over the stack of solutions, and each weight
        and violation total is its own sum over the 1-D sequence that
        `evaluate` sums."""
        areas = clamp(np.asarray(designs, dtype=float), self.area_lo, self.area_hi)
        B = len(areas)
        # a design that does not solve keeps zeros, a finite stand-in
        # that is dropped at the end
        X = np.zeros((B, self._rhs.size))
        solved = [True] * B
        for i, a in enumerate(areas):
            try:
                X[i] = self._solve(a)
            except SingularStructure:
                solved[i] = False
        margins = self._margins(areas, X)[-1]
        excess = np.maximum(margins, 0.0).reshape(B, -1)
        volumes = areas[:, self.group_of] * self.lengths
        return [(a, float(self.density * v.sum()), float(g.sum())) if ok
                else (a, np.inf, np.inf)
                for ok, a, v, g in zip(solved, areas, volumes, excess)]

    def sensitivities(self, areas):
        """A design's evaluation with the derivatives of its margins, by
        the direct method: (what `evaluate` returns, bit for bit, the
        (n_cases, n_rows) margins g, and dg/dA shaped (n_groups, n_cases,
        n_rows)). Where `factorize` raises SingularStructure, the
        evaluation is `evaluate`'s (areas, inf, inf) and the other two
        are None.

        It costs one factorization and two banded solves: the loads, then
        n_groups * n_cases right-hand sides. Since dK/dA_g u = sum over
        the elements e of g of sigma_e d_e, the solution derivative
        dX/dA_g solves K dX = -sum sigma_e d_e on e's dofs in every case;
        it goes through the stress kernel and the takes of `_margins` and
        is divided by the limit of q's sign. A compressed buckling row
        also moves with its own group's Euler bound; a row whose limit is
        infinite has derivative 0."""
        areas = clamp(np.asarray(areas, dtype=float), self.area_lo, self.area_hi)
        try:
            factor = self.factorize(areas)
        except SingularStructure:
            return (areas, np.inf, np.inf), None, None
        X = dpbtrs(factor, self._rhs, lower=1)[0].ravel(order="F")
        source, q, limit, margins = self._margins(areas, X)
        evaluation = self._evaluation(areas, margins)

        # the right-hand sides of every (group, case), each laid out as the
        # padded loads; the pad row, which every fixed dof hits, is zeroed
        n_groups, width = len(areas), self._rhs.size
        stresses = source[:len(self._d6_stacked)]
        at = (np.tile(self.group_of, self._rhs.shape[1])[:, None] * width
              + self._elem_take)
        rhs = np.bincount(at.ravel(),
                          weights=(-stresses[:, None] * self._d6_stacked).ravel(),
                          minlength=n_groups * width).reshape(-1, self.n_free + 1)
        rhs[:, -1] = 0.0
        dX = dpbtrs(factor, rhs.T, lower=1)[0].T.reshape(n_groups, width)

        jacobian = self._source(dX).take(self._q_take, axis=-1) / limit
        if self.buckling_row.size:
            # g = q/lower - 1 with lower = coeff*A/L^2 on a compressed
            # buckling row; in tension its limit is inf and the term is 0
            rows = self.buckling_row
            jacobian[self.buckling_group, :, rows] -= (
                q[:, rows] / limit[:, rows] ** 2
                * (self.buckling_coeff / self.buckling_L2)).T
        return evaluation, margins, jacobian

    def _solve(self, areas):
        """The padded solution at a float design, its load cases end to
        end. Raises SingularStructure where `factorize` does."""
        return dpbtrs(self.factorize(areas), self._rhs, lower=1)[0].ravel(order="F")

    def _evaluation(self, areas, margins):
        return (areas, self.structure_weight(areas),
                float(np.maximum(margins.ravel(), 0.0).sum()))

    def _source(self, X):
        """The stresses of every load case followed by X, for one padded
        solution or a stack of them (a leading axis)."""
        elong = np.einsum("ij,...ij->...i", self._d6_stacked,
                          X.take(self._elem_take, axis=-1))
        return np.concatenate((self.E * elong / self._lengths_stacked, X),
                              axis=-1)

    def _margins(self, areas, X):
        """The post-solve of one design, (n_groups,) areas and padded
        solution X, or of a stack, (B, n_groups) and (B, X.size). Return
        the source (`_source`), then the constraint quantities q, their
        limits (`_limits`) and the margins g = q/limit - 1, each
        (n_cases, n_rows) over the constraint table; a stack gives each a
        leading axis.

        Stress: against the tension limit for positive stress, the
        compression limit magnitude for negative. Buckling: against the
        area-dependent Euler bound -K*E*A/L^2 under compression, and an
        infinite limit in tension. Displacement: |u|/limit - 1.
        """
        source = self._source(X)
        q = source.take(self._q_take, axis=-1)
        limit = self._limits(areas, q)
        return source, q, limit, q / limit - 1.0

    def _limits(self, areas, q):
        """The limit of each constraint quantity q, the one of q's sign,
        so q/limit = |q|/|limit|."""
        lower = self.row_lower
        if self.buckling_row.size:
            # each design's Euler bounds go in through the transpose,
            # whose first axis is the row for one design and a stack alike
            lower = np.empty(areas.shape[:-1] + lower.shape)
            lower[...] = self.row_lower
            lower.T[self.buckling_row] = (self.buckling_coeff
                                          * areas.take(self.buckling_group, axis=-1)
                                          / self.buckling_L2).T
            lower = lower[..., None, :]
        return np.where(q >= 0, self.row_upper, lower)

    def constraint_labels(self):
        """The label of every (load case, row) of the constraint table, in
        the row-major order of the margins: kind, load case (its
        position), and element or node/dof."""
        n_member = len(self.row_source) - len(self._limit_dofs)
        kinds = ["stress"] * n_member + ["displacement"] * len(self._limit_dofs)
        for r in self.buckling_row.tolist():
            kinds[r] = "buckling"
        where = [{"element": i} for i in self.row_source[:n_member].tolist()]
        where += [{"node": d // 3, "dof": DOF_NAMES[d % 3]}
                  for d in self._limit_dofs.tolist()]
        return [{"kind": kind, "case": c, **w}
                for c in range(self._rhs.shape[1])
                for kind, w in zip(kinds, where)]


_analyzers = weakref.WeakKeyDictionary()


def get_analyzer(model) -> Analyzer:
    an = _analyzers.get(model)
    if an is None:
        an = Analyzer(model)
        _analyzers[model] = an
    return an


def structure_weight(model, areas):
    return get_analyzer(model).structure_weight(areas)


def analyze(model, areas) -> AnalysisResult:
    return get_analyzer(model).analyze(areas)


def reject_mechanism(model):
    """Raise ModelError if the model is a mechanism. A stiffness matrix
    with positive areas is singular at every design or at none, so one
    factorization at the upper area bounds decides it."""
    try:
        get_analyzer(model).factorize(model.area_bounds()[1])
    except SingularStructure as exc:
        raise ModelError(f"model {model.name} is a mechanism: {exc}") from None
