"""Linear-elastic truss analysis by the direct stiffness method.

All per-geometry quantities (member lengths, direction cosines, dof
scatter indices, the constraint table) are precomputed once per model in
an Analyzer, so that repeated analyses of different designs only pay for
the stiffness assembly and a dense Cholesky solve, which calls LAPACK
potrf/potrs directly. An analysis yields one [stresses | displacements]
row per load case, and the normalized margin of every constraint row
read from it with the in-force mask; labels for those rows are built
only on request. The optimizer's evaluation (`Analyzer.evaluate`) goes
from areas to (weight, violation total) through the same margins
without building a result object. Everything is pure in the design
vector, so analyses may run concurrently.
"""

import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .model import DOF_NAMES, ModelError, TrussModel


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
        coords = model.node_coords()
        n_nodes = model.n_nodes
        ndof = 3 * n_nodes

        na = np.array([e.node_a for e in model.elements])
        nb = np.array([e.node_b for e in model.elements])
        delta = coords[nb] - coords[na]
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

        # flattened scatter indices of each element's 6x6 block into the
        # reduced matrix; contributions touching fixed dofs are dropped
        rows = np.repeat(dofs, 6, axis=1)                  # (n_el, 36)
        cols = np.tile(dofs, (1, 6))
        keep = self.free[rows] & self.free[cols]
        flat = pos[rows] * self.n_free + pos[cols]
        outer = d6[:, :, None] * d6[:, None, :]            # (n_el, 6, 6)
        outer_flat = outer.reshape(n_el, 36)
        self._scatter_idx = flat[keep]
        self._scatter_coeff = outer_flat[keep]
        self._scatter_el = np.nonzero(keep)[0]             # element of each entry

        self.E = model.material.elastic_modulus
        self.density = model.material.weight_density

        # load vectors, reduced to free dofs, one column per load case;
        # add.at accumulates repeated (dof, case) entries in load order
        n_cases = len(model.load_cases)
        case = np.array([j for j, lc in enumerate(model.load_cases)
                         for _ in lc.point_loads], dtype=int)
        node = np.array([nid for lc in model.load_cases
                         for nid, _ in lc.point_loads], dtype=int)
        forces = np.array([f for lc in model.load_cases
                           for _, f in lc.point_loads], dtype=float)
        F = np.zeros((ndof, n_cases))
        np.add.at(F, (3 * node[:, None] + np.arange(3), case[:, None]),
                  forces.reshape(-1, 3))
        self.F_free = F[self.free]

        # response columns of the free dofs and of each element's dofs; the
        # 2-D stress kernel over all cases' stacked element rows sums each
        # row exactly as it would for a single case
        self._free_cols = n_el + np.flatnonzero(self.free)
        self._elem_cols = n_el + dofs
        self._d6_stacked = np.tile(d6, (n_cases, 1))     # (n_cases * n_el, 6)
        self._response_shape = (n_cases, n_el + ndof)

        # the constraint table, one row per constraint of a load case: each
        # element's stress, followed by its Euler buckling bound if its
        # group buckles, then the displacement limits in sorted (node, dof)
        # order. A row reads column `source` of the response array and
        # divides it by the limit of the same sign
        table = []         # (source, upper, lower, kind, where)
        buckling_K = []
        for i, e in enumerate(model.elements):
            g = model.groups[self.group_of[i]]
            table.append((i, g.stress_tension_limit, -g.stress_compression_limit,
                         "stress", {"element": e.id}))
            if g.buckling is not None:
                # lower is -K*E*A/L^2, set per design; in force only under
                # compression
                table.append((i, np.inf, np.nan, "buckling", {"element": e.id}))
                buckling_K.append(g.buckling.K)
        for dl in model.displacement_limits:
            for nid in sorted(dl.nodes):
                for dof in sorted(dl.dofs):
                    table.append((n_el + 3 * nid + DOF_NAMES.index(dof),
                                 dl.limit, -dl.limit,
                                 "displacement", {"node": nid, "dof": dof}))
        source, upper, lower, kinds, where = zip(*table)
        self.row_source = np.array(source)
        self.row_upper = np.array(upper)
        self.row_lower = np.array(lower)
        self.buckling_row = np.flatnonzero(np.array(kinds) == "buckling")
        buckling_el = self.row_source[self.buckling_row]
        self.buckling_group = self.group_of[buckling_el]
        self.buckling_coeff = -np.array(buckling_K) * self.E
        self.buckling_L2 = self.lengths[buckling_el] ** 2
        self._row_kind, self._row_where = kinds, where
        self._case_ids = tuple(lc.id for lc in model.load_cases)

    def structure_weight(self, areas):
        """Total weight: density * sum over elements of area * length."""
        areas = np.asarray(areas, dtype=float)
        return float(self.density * (areas[self.group_of] * self.lengths).sum())

    def assemble(self, areas):
        """Reduced (free-dof) global stiffness matrix for a design vector."""
        areas = np.asarray(areas, dtype=float)
        k_axial = self.E * areas[self.group_of] / self.lengths  # (n_el,)
        # scatter-add all element (E*A/L) * d d^T blocks in one bincount
        vals = k_axial[self._scatter_el] * self._scatter_coeff
        K = np.bincount(self._scatter_idx, weights=vals,
                        minlength=self.n_free * self.n_free)
        return K.reshape(self.n_free, self.n_free)

    def factorize(self, areas):
        """Lower Cholesky factor of the reduced stiffness at a design."""
        K = self.assemble(areas)
        diag = K.diagonal()
        if diag.size == 0 or diag.max() <= 0:
            raise SingularStructure("stiffness matrix has no positive diagonal")
        c, info = dpotrf(K, lower=1, clean=0)
        if info > 0:
            raise SingularStructure("Cholesky factorization failed")
        pivots = c.diagonal() ** 2
        if pivots.min() < SINGULARITY_RTOL * diag.max():
            raise SingularStructure("pivot below singularity tolerance")
        return c

    def analyze(self, areas):
        """Weight, the response array of every load case, and the
        normalized constraints g = quantity/limit - 1 over the constraint
        table with the mask of the entries in force (see `_margins`)."""
        areas = np.asarray(areas, dtype=float)
        response, margins, in_force = self._margins(areas)
        return AnalysisResult(weight=self.structure_weight(areas),
                              response=response, n_elements=len(self.lengths),
                              margins=margins, in_force=in_force)

    def evaluate(self, areas):
        """The optimizer's evaluation: (areas clamped to their bounds,
        weight, total violation). The total sums max(g, 0) over the
        margins in force, as `penalty.evaluate_constraints` does over an
        `analyze` result, bit for bit. Raises SingularStructure where
        `factorize` does."""
        areas = np.clip(np.asarray(areas, dtype=float), self.area_lo, self.area_hi)
        _, margins, in_force = self._margins(areas)
        total = float(np.maximum(margins[in_force], 0.0).sum())
        return areas, self.structure_weight(areas), total

    def _margins(self, areas):
        """Solve every load case at a float design; return the response
        array, the margins g and their in-force mask.

        Stress: against the tension limit for positive stress, the
        compression limit magnitude for negative. Buckling: against the
        area-dependent Euler bound -K*E*A/L^2, in force only under
        compression. Displacement: |u|/limit - 1.
        """
        U, _ = dpotrs(self.factorize(areas), self.F_free, lower=1)
        response = np.zeros(self._response_shape)
        response[:, self._free_cols] = U.T
        n_el = len(self.lengths)
        elong = np.einsum("ij,ij->i", self._d6_stacked,
                          response[:, self._elem_cols].reshape(-1, 6))
        response[:, :n_el] = self.E * elong.reshape(-1, n_el) / self.lengths

        q = response[:, self.row_source]
        lower = self.row_lower
        in_force = np.ones(q.shape, dtype=bool)
        if self.buckling_row.size:
            lower = lower.copy()
            lower[self.buckling_row] = (self.buckling_coeff
                                        * areas[self.buckling_group]
                                        / self.buckling_L2)
            in_force[:, self.buckling_row] = q[:, self.buckling_row] < 0
        # the limit takes the sign of q, so q/limit = |q|/|limit|
        margins = q / np.where(q >= 0, self.row_upper, lower) - 1.0
        return response, margins, in_force

    def constraint_labels(self, mask):
        """The label of each true entry of an (n_cases, n_rows) mask, in
        row-major order: kind, load case, and element or node/dof."""
        return [{"kind": self._row_kind[r], "case": self._case_ids[c],
                 **self._row_where[r]}
                for c, r in zip(*np.nonzero(mask))]


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
