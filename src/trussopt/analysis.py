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
reads, so element displacements and the constraint sources are flat
takes from the padded solution with no response array in between. An
analysis (`analyze`) yields one [stresses | displacements] row per load
case, and the normalized margin of every constraint row with the
in-force mask; labels for those rows are built only on request. The
optimizer's evaluation (`Analyzer.evaluate`) goes from areas to (weight,
violation total) through the same solve and margins without building a
response array or a result object. `Analyzer.evaluate_many` evaluates a
batch of designs: it factors and solves each one on its own (every
singularity check stays in `factorize`) and runs the element take, the
stresses, the margins and the in-force mask once over the stack. Its
contract is bit identity: each design's entry is exactly what `evaluate`
returns for it, or None where `evaluate` raises. Stacking keeps that
because those kernels are elementwise or sum each row of six on its own,
and each weight and violation total is its own sum over the same 1-D
sequence as in `evaluate`; one sum along an axis of the stack would
change last bits. Everything is pure in the design vector, so analyses
may run concurrently.
"""

import weakref
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .model import DOF_NAMES, ModelError, TrussModel, clamp


class AnalysisError(Exception):
    pass


class SingularStructure(AnalysisError):
    """Reduced stiffness matrix is (numerically) singular: the structure
    is a mechanism, not merely a bad candidate design."""


class ZeroLengthElement(AnalysisError):
    pass


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
    in_force: np.ndarray   # (n_cases, n_rows) bool: a buckling row only
                           # under compression

    @property
    def cases(self):
        """One LoadCaseResult per load case: views into `response`."""
        n_el = self.n_elements
        return tuple(LoadCaseResult(displacements=row[n_el:].reshape(-1, 3),
                                    element_stresses=row[:n_el])
                     for row in self.response)


class Analyzer:
    """Per-model precomputation for fast repeated analysis."""

    def __init__(self, model: TrussModel):
        ndof = 3 * model.n_nodes
        # validate keeps every end inside 0..n_nodes-1, so int64 holds them
        na, nb = (np.fromiter(map(itemgetter(end), model.elements), dtype=int,
                              count=model.n_elements) for end in (0, 1))
        delta = model.coords[nb] - model.coords[na]
        self.lengths = np.linalg.norm(delta, axis=1)
        if np.any(self.lengths < 1e-12):
            raise ZeroLengthElement("model contains a zero-length element")
        n_el = len(self.lengths)
        dirs = delta / self.lengths[:, None]               # (n_el, 3) unit vectors
        self.group_of = model.element_group_indices()
        self.area_lo, self.area_hi = model.area_bounds()  # evaluate clamps

        # signed 6-vector d per element: displacement u6 . d = axial elongation
        d6 = np.hstack([-dirs, dirs])                      # (n_el, 6)
        dofs = np.stack([3 * na, 3 * na + 1, 3 * na + 2,
                         3 * nb, 3 * nb + 1, 3 * nb + 2], axis=1)  # (n_el, 6)

        self.free = ~model.fixed_dof_mask()
        self.n_free = int(self.free.sum())
        # position of each global dof inside the reduced system (-1 if fixed)
        pos = -np.ones(ndof, dtype=int)
        pos[self.free] = np.arange(self.n_free)

        # scatter indices of each element's 6x6 block into the lower band
        # of the reduced matrix: entry (i, j), i >= j, goes to band[i - j, j]
        # of a (kd + 1, n_free) array, stored column by column as LAPACK
        # reads it. Contributions touching fixed dofs are dropped
        rows = pos[np.repeat(dofs, 6, axis=1)]             # (n_el, 36)
        cols = pos[np.tile(dofs, (1, 6))]
        keep = (rows >= cols) & (cols >= 0)
        self.kd = int(np.max(rows[keep] - cols[keep], initial=0))
        flat = cols * (self.kd + 1) + rows - cols
        outer = d6[:, :, None] * d6[:, None, :]            # (n_el, 6, 6)
        outer_flat = outer.reshape(n_el, 36)
        self._scatter_idx = flat[keep]
        self._scatter_coeff = outer_flat[keep]
        self._scatter_el = np.nonzero(keep)[0]             # element of each entry

        self.E = model.material.elastic_modulus
        self.density = model.material.weight_density

        # load vectors, one column per load case; add.at accumulates
        # repeated (dof, case) entries in load order. The right-hand side
        # holds them on the free dofs in Fortran order, as pbtrs reads it,
        # with one more row of zeros: pbtrs takes n from the band, so it
        # leaves that row alone, and every fixed dof reads it
        n_cases = len(model.load_cases)
        case = np.array([j for j, loads in enumerate(model.load_cases)
                         for _ in loads], dtype=int)
        node = np.array([nid for loads in model.load_cases
                         for nid, _ in loads], dtype=int)
        forces = np.array([f for loads in model.load_cases
                           for _, f in loads], dtype=float)
        F = np.zeros((ndof, n_cases))
        np.add.at(F, (3 * node[:, None] + np.arange(3), case[:, None]),
                  forces.reshape(-1, 3))
        self._rhs = np.zeros((self.n_free + 1, n_cases), order="F")
        self._rhs[:-1] = F[self.free]
        self._rhs.flags.writeable = False
        self.F_free = self._rhs[:-1]
        # row of each global dof in the padded solution: the zero row if fixed
        dof_row = np.where(self.free, pos, self.n_free)

        # flat indices into the padded solution raveled case by case: the
        # six dofs of each element of each case, stacked as the 2-D stress
        # kernel reads them; that kernel sums each row exactly as it would
        # for a single case
        n_pad = self.n_free + 1
        self._elem_take = (np.arange(n_cases)[:, None, None] * n_pad
                           + dof_row[dofs]).reshape(-1, 6)
        self._d6_stacked = np.tile(d6, (n_cases, 1))     # (n_cases * n_el, 6)

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
              np.nan if g.buckling is None else g.buckling.K)
             for g in model.groups], dtype=float).reshape(-1, 3).T
        buckles = ~np.isnan(K[self.group_of])
        rows = 1 + buckles                 # an element's rows: 1 or 2
        member_source = np.repeat(np.arange(n_el), rows)
        member_group = self.group_of[member_source]
        self.buckling_row = (np.cumsum(rows) - 1)[buckles]
        self._limit_dofs = np.array(
            [3 * nid + DOF_NAMES.index(dof)
             for dl in model.displacement_limits
             for nid in sorted(dl.nodes) for dof in sorted(dl.dofs)], dtype=int)
        limit = np.repeat([dl.limit for dl in model.displacement_limits],
                          [len(dl.nodes) * len(dl.dofs)
                           for dl in model.displacement_limits])
        self.row_source = np.concatenate((member_source,
                                          n_el + dof_row[self._limit_dofs]))
        self.row_upper = np.concatenate((upper[member_group], limit))
        self.row_lower = np.concatenate((lower[member_group], -limit))
        # lower is -K*E*A/L^2 on a buckling row, set per design; in force
        # only under compression
        self.row_upper[self.buckling_row] = np.inf
        self.row_lower[self.buckling_row] = np.nan
        buckling_el = self.row_source[self.buckling_row]
        self.buckling_group = self.group_of[buckling_el]
        self.buckling_coeff = -K[self.buckling_group] * self.E
        self.buckling_L2 = self.lengths[buckling_el] ** 2
        # flat indices of every (case, row) source, and the response columns
        # of the stresses and of all 3 * n_nodes dofs
        self._q_take = np.arange(n_cases)[:, None] * (n_el + n_pad) + self.row_source
        self._response_cols = np.concatenate((np.arange(n_el), n_el + dof_row))

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
        table with the mask of the entries in force (see `_margins`)."""
        areas = np.asarray(areas, dtype=float)
        source, margins, in_force = self._margins(areas)
        if in_force is None:
            in_force = np.ones(margins.shape, dtype=bool)
        return AnalysisResult(weight=self.structure_weight(areas),
                              response=source[:, self._response_cols],
                              n_elements=len(self.lengths),
                              margins=margins, in_force=in_force)

    def evaluate(self, areas):
        """The optimizer's evaluation: (areas clamped to their bounds,
        weight, total violation). The total sums max(g, 0) over the
        margins in force, as `penalty.evaluate_constraints` does over an
        `analyze` result, bit for bit. Raises SingularStructure where
        `factorize` does."""
        areas = clamp(np.asarray(areas, dtype=float), self.area_lo, self.area_hi)
        _, margins, in_force = self._margins(areas)
        # the same 1-D sequence as margins[in_force], so the same sum
        g = margins.ravel() if in_force is None else margins[in_force]
        return areas, self.structure_weight(areas), float(np.maximum(g, 0.0).sum())

    def evaluate_many(self, designs):
        """`evaluate` over the rows of a (B, n_groups) array: a list with
        what `evaluate` returns for each design, bit for bit, or None
        where it raises. Each design is factored and solved on its own;
        the rest of `_margins` runs once over the stack of solutions, and
        each weight and violation total is its own sum over the 1-D
        sequence that `evaluate` sums."""
        areas = clamp(np.asarray(designs, dtype=float), self.area_lo, self.area_hi)
        B = len(areas)
        n_pad, n_cases = self._rhs.shape
        n_el = len(self.lengths)
        # a design that does not solve keeps zeros, a finite stand-in
        # that is dropped at the end
        X = np.zeros((B, n_cases, n_pad))
        solved = [True] * B
        for i, a in enumerate(areas):
            try:
                X[i] = dpbtrs(self.factorize(a), self._rhs, lower=1)[0].T
            except SingularStructure:
                solved[i] = False

        # _margins' kernels on (B * rows, ...) stacks: the same element
        # take, row sums and elementwise arithmetic
        elong = np.einsum("ij,ij->i", np.tile(self._d6_stacked, (B, 1)),
                          X.reshape(B, n_cases * n_pad).take(self._elem_take, axis=1)
                          .reshape(-1, 6))
        stresses = self.E * elong.reshape(B, n_cases, n_el) / self.lengths
        source = np.concatenate((stresses, X), axis=2)
        q = source.reshape(B, n_cases * (n_el + n_pad)).take(self._q_take, axis=1)
        lower = self.row_lower
        in_force = None
        if self.buckling_row.size:
            lower = np.tile(lower, (B, 1))
            lower[:, self.buckling_row] = (self.buckling_coeff
                                           * areas[:, self.buckling_group]
                                           / self.buckling_L2)
            lower = lower[:, None, :]
            in_force = np.ones(q.shape, dtype=bool)
            in_force[..., self.buckling_row] = q[..., self.buckling_row] < 0
        excess = np.maximum(q / np.where(q >= 0, self.row_upper, lower) - 1.0, 0.0)
        excess = excess.reshape(B, self._q_take.size)
        if in_force is not None:
            excess = [e[f] for e, f in zip(excess, in_force.reshape(excess.shape))]
        volumes = areas[:, self.group_of] * self.lengths
        return [(a, float(self.density * v.sum()), float(g.sum())) if ok else None
                for ok, a, v, g in zip(solved, areas, volumes, excess)]

    def _margins(self, areas):
        """Solve every load case at a float design. Return the source
        array, one [stresses | padded solution] row per load case, the
        margins g, and their in-force mask, or None when every entry is
        in force (a model without buckling rows).

        Stress: against the tension limit for positive stress, the
        compression limit magnitude for negative. Buckling: against the
        area-dependent Euler bound -K*E*A/L^2, in force only under
        compression. Displacement: |u|/limit - 1.
        """
        X, _ = dpbtrs(self.factorize(areas), self._rhs, lower=1)
        n_el = len(self.lengths)
        elong = np.einsum("ij,ij->i", self._d6_stacked,
                          X.ravel(order="F").take(self._elem_take))
        stresses = self.E * elong.reshape(-1, n_el) / self.lengths
        source = np.concatenate((stresses, X.T), axis=1)

        q = source.take(self._q_take)
        lower = self.row_lower
        in_force = None
        if self.buckling_row.size:
            lower = lower.copy()
            lower[self.buckling_row] = (self.buckling_coeff
                                        * areas[self.buckling_group]
                                        / self.buckling_L2)
            in_force = np.ones(q.shape, dtype=bool)
            in_force[:, self.buckling_row] = q[:, self.buckling_row] < 0
        # the limit takes the sign of q, so q/limit = |q|/|limit|
        margins = q / np.where(q >= 0, self.row_upper, lower) - 1.0
        return source, margins, in_force

    def constraint_labels(self, mask):
        """The label of each true entry of an (n_cases, n_rows) mask, in
        row-major order: kind, load case (its position), and element or
        node/dof."""
        n_member = len(self.row_source) - len(self._limit_dofs)
        kinds = ["stress"] * n_member + ["displacement"] * len(self._limit_dofs)
        for r in self.buckling_row.tolist():
            kinds[r] = "buckling"
        where = [{"element": i} for i in self.row_source[:n_member].tolist()]
        where += [{"node": d // 3, "dof": DOF_NAMES[d % 3]}
                  for d in self._limit_dofs.tolist()]
        cases, rows = np.nonzero(mask)
        return [{"kind": kinds[r], "case": c, **where[r]}
                for c, r in zip(cases.tolist(), rows.tolist())]


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
