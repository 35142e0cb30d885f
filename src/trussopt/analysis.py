"""Linear-elastic truss analysis by the direct stiffness method.

All per-geometry quantities (member lengths, direction cosines, dof
scatter indices) are precomputed once per model in an Analyzer, so that
repeated analyses of different designs only pay for the stiffness
assembly and a dense Cholesky solve. Everything is pure with respect to
the design vector, so analyses may run concurrently on a shared model.
"""

import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import DOF_NAMES, TrussModel


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
    weight: float        # lb
    cases: tuple         # one LoadCaseResult per load case, model order


class Analyzer:
    """Per-model precomputation for fast repeated analysis."""

    def __init__(self, model: TrussModel):
        self.model = model
        coords = model.node_coords()
        n_nodes = model.n_nodes
        ndof = 3 * n_nodes

        na = np.array([e.node_a for e in model.elements])
        nb = np.array([e.node_b for e in model.elements])
        delta = coords[nb] - coords[na]
        self.lengths = np.linalg.norm(delta, axis=1)
        if np.any(self.lengths < 1e-12):
            raise ZeroLengthElement("model contains a zero-length element")
        self.dirs = delta / self.lengths[:, None]          # (n_el, 3) unit vectors
        self.group_of = model.element_group_indices()

        # signed 6-vector d per element: displacement u6 . d = axial elongation
        d6 = np.hstack([-self.dirs, self.dirs])            # (n_el, 6)
        self.d6 = d6
        dofs = np.stack([3 * na, 3 * na + 1, 3 * na + 2,
                         3 * nb, 3 * nb + 1, 3 * nb + 2], axis=1)  # (n_el, 6)
        self.elem_dofs = dofs

        self.fixed = model.fixed_dof_mask()
        self.free = ~self.fixed
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
        outer_flat = outer.reshape(len(self.lengths), 36)
        self._scatter_idx = flat[keep]
        self._scatter_coeff = outer_flat[keep]
        self._keep = keep

        self.ndof = ndof
        self.E = model.material.elastic_modulus
        self.density = model.material.weight_density

        # load vectors, reduced to free dofs, one column per load case
        F = np.zeros((ndof, len(model.load_cases)))
        for j, lc in enumerate(model.load_cases):
            for nid, f in lc.point_loads:
                F[3 * nid:3 * nid + 3, j] += f
        self.F_free = F[self.free]

        # the constraint table, one row per constraint of a load case: each
        # element's stress, followed by its Euler buckling bound if its
        # group buckles, then the displacement limits in sorted (node, dof)
        # order. A row reads column `source` of the case's [stresses |
        # displacements] and divides it by the limit of the same sign
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
                    table.append((len(self.lengths) + 3 * nid + DOF_NAMES.index(dof),
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
        # one label per (load case, row), in row-major order
        self.row_labels = np.array(
            [{"kind": kind, "case": lc.id, **at}
             for lc in model.load_cases for kind, at in zip(kinds, where)],
            dtype=object)

    def structure_weight(self, areas):
        """Total weight: density * sum over elements of area * length."""
        areas = np.asarray(areas, dtype=float)
        return float(self.density * np.sum(areas[self.group_of] * self.lengths))

    def assemble(self, areas):
        """Reduced (free-dof) global stiffness matrix for a design vector."""
        areas = np.asarray(areas, dtype=float)
        k_axial = self.E * areas[self.group_of] / self.lengths  # (n_el,)
        # scatter-add all element (E*A/L) * d d^T blocks in one bincount
        vals = np.repeat(k_axial, 36).reshape(-1, 36)[self._keep] * self._scatter_coeff
        K = np.bincount(self._scatter_idx, weights=vals,
                        minlength=self.n_free * self.n_free)
        return K.reshape(self.n_free, self.n_free)

    def factorize(self, areas):
        K = self.assemble(areas)
        diag = np.diag(K)
        if diag.size == 0 or np.max(diag) <= 0:
            raise SingularStructure("stiffness matrix has no positive diagonal")
        try:
            c, low = cho_factor(K, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            raise SingularStructure("Cholesky factorization failed") from None
        pivots = np.diag(c) ** 2
        if np.min(pivots) < SINGULARITY_RTOL * np.max(diag):
            raise SingularStructure("pivot below singularity tolerance")
        return (c, low)

    def _expand(self, u_free):
        u = np.zeros(self.ndof)
        u[self.free] = u_free
        return u

    def _stresses(self, u):
        elong = np.einsum("ij,ij->i", self.d6, u[self.elem_dofs])
        return self.E * elong / self.lengths

    def analyze(self, areas):
        """Full AnalysisResult: every load case plus the structure weight."""
        areas = np.asarray(areas, dtype=float)
        factor = self.factorize(areas)
        U = cho_solve(factor, self.F_free, check_finite=False)
        cases = []
        for j in range(U.shape[1]):
            u = self._expand(U[:, j])
            cases.append(LoadCaseResult(displacements=u.reshape(-1, 3),
                                        element_stresses=self._stresses(u)))
        return AnalysisResult(weight=self.structure_weight(areas), cases=tuple(cases))


_analyzers = weakref.WeakKeyDictionary()


def get_analyzer(model) -> Analyzer:
    an = _analyzers.get(model)
    if an is None:
        an = Analyzer(model)
        _analyzers[model] = an
    return an


def structure_weight(model, areas):
    return get_analyzer(model).structure_weight(areas)


def assemble_global_stiffness(model, areas):
    return get_analyzer(model).assemble(areas)


def analyze(model, areas) -> AnalysisResult:
    return get_analyzer(model).analyze(areas)

