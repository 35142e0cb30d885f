"""Immutable problem data model for pin-jointed truss sizing optimization.

Units are imperial throughout: coordinates in inches, areas in in^2,
forces in kips, stresses in ksi, weight density in lb/in^3, weight in lb.
Planar models simply keep every z coordinate and z load at zero;
make_model then fixes the z dofs through their supports.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

DOF_NAMES = ("x", "y", "z")


class ModelError(Exception):
    """Base class for model construction/validation failures."""


class ValidationError(ModelError):
    """Raised when a model violates one or more structural invariants.

    The ``problems`` attribute lists every violation found, each tagged
    with a short machine-readable code (e.g. ``DanglingReference``).
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(f"{code}: {msg}" for code, msg in self.problems))


@dataclass(frozen=True)
class Node:
    id: int
    coords: tuple  # (x, y, z) in inches


@dataclass(frozen=True)
class Element:
    id: int
    node_a: int
    node_b: int
    group: int


@dataclass(frozen=True)
class BucklingSpec:
    """Euler buckling activation for a member group; K is dimensionless."""
    K: float


@dataclass(frozen=True)
class MemberGroup:
    id: int
    area_min: float
    area_max: float
    stress_tension_limit: float      # ksi, magnitude (> 0, may be inf)
    stress_compression_limit: float  # ksi, magnitude (> 0, may be inf)
    buckling: Optional[BucklingSpec] = None


@dataclass(frozen=True)
class Material:
    elastic_modulus: float  # ksi
    weight_density: float   # lb/in^3 (weight density, gravity already folded in)


@dataclass(frozen=True)
class SupportSpec:
    node: int
    fixed_dofs: frozenset  # subset of {"x", "y", "z"}


@dataclass(frozen=True)
class LoadCase:
    id: int
    point_loads: tuple  # of (node_id, (fx, fy, fz)) in kips


@dataclass(frozen=True)
class DisplacementLimit:
    nodes: frozenset   # node ids
    dofs: frozenset    # subset of {"x", "y", "z"}
    limit: float       # inches, symmetric bound +/- limit


@dataclass(frozen=True, eq=False)
class TrussModel:
    """Complete immutable truss definition.

    Instances are compared by identity (eq=False) so they stay hashable
    and can key per-model caches; content equality is rarely useful and
    numpy-laden fields would make it awkward.
    """
    name: str
    nodes: tuple
    elements: tuple
    groups: tuple
    material: Material
    supports: tuple
    load_cases: tuple
    displacement_limits: tuple = ()
    provenance: str = ""

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_groups(self):
        return len(self.groups)

    def node_coords(self):
        """(n_nodes, 3) array of coordinates ordered by node id."""
        return np.array([n.coords for n in self.nodes], dtype=float)

    def group_index(self):
        """Map group id -> position in the design vector (sorted by id)."""
        return {g.id: i for i, g in enumerate(self.groups)}

    def area_bounds(self):
        """(lower, upper) arrays, one entry per group, design-vector order."""
        lo = np.array([g.area_min for g in self.groups], dtype=float)
        hi = np.array([g.area_max for g in self.groups], dtype=float)
        return lo, hi

    def element_group_indices(self):
        """Design-vector index of every element's group, element order."""
        gidx = self.group_index()
        return np.array([gidx[e.group] for e in self.elements], dtype=int)

    def clamp(self, areas):
        """Clamp a design vector into the per-group area bounds."""
        lo, hi = self.area_bounds()
        return np.clip(np.asarray(areas, dtype=float), lo, hi)

    def fixed_dof_mask(self):
        """Boolean (n_nodes * 3,) mask of dofs eliminated by supports."""
        mask = np.zeros(self.n_nodes * 3, dtype=bool)
        for s in self.supports:
            for d in s.fixed_dofs:
                mask[3 * s.node + DOF_NAMES.index(d)] = True
        return mask


def make_model(name, nodes, elements, groups, material, supports, load_cases,
               displacement_limits=(), provenance=""):
    """Build and validate a TrussModel from plain python data.

    nodes: list of (x, y, z) or (x, y); ids assigned 0..n-1 in order.
    elements: list of (node_a, node_b, group_id); ids assigned in order.
    groups: list of MemberGroup.
    supports: list of (node_id, "xy" / "xyz" / iterable of dof names).
    load_cases: list of {node_id: (fx, fy, fz)} or list of LoadCase.
    displacement_limits: list of (node_ids, dofs, limit) or DisplacementLimit.

    Planar models (all z == 0, no z loads) get their z dofs fixed
    automatically on every node.
    """
    node_objs = []
    planar = True
    for i, c in enumerate(nodes):
        c = tuple(float(v) for v in c)
        if len(c) == 2:
            c = c + (0.0,)
        if c[2] != 0.0:
            planar = False
        node_objs.append(Node(id=i, coords=c))

    elem_objs = tuple(Element(id=i, node_a=int(a), node_b=int(b), group=int(g))
                      for i, (a, b, g) in enumerate(elements))

    case_objs = []
    for i, lc in enumerate(load_cases):
        if isinstance(lc, LoadCase):
            case_objs.append(lc)
            continue
        loads = []
        for node_id, f in lc.items():
            f = tuple(float(v) for v in f)
            if len(f) == 2:
                f = f + (0.0,)
            loads.append((int(node_id), f))
        loads.sort()
        case_objs.append(LoadCase(id=i, point_loads=tuple(loads)))

    planar = planar and all(f[2] == 0.0 for lc in case_objs
                            for _, f in lc.point_loads)

    support_objs = []
    support_nodes = {}
    for node_id, dofs in supports:
        dofs = frozenset(dofs)
        support_nodes[int(node_id)] = dofs
        support_objs.append(SupportSpec(node=int(node_id), fixed_dofs=dofs))
    if planar:
        # fix z everywhere; merge with any explicit support on the node
        support_objs = []
        for i in range(len(node_objs)):
            dofs = support_nodes.get(i, frozenset()) | {"z"}
            support_objs.append(SupportSpec(node=i, fixed_dofs=frozenset(dofs)))

    dl_objs = []
    for dl in displacement_limits:
        if isinstance(dl, DisplacementLimit):
            dl_objs.append(dl)
        else:
            node_ids, dofs, limit = dl
            dl_objs.append(DisplacementLimit(nodes=frozenset(int(n) for n in node_ids),
                                             dofs=frozenset(dofs),
                                             limit=float(limit)))

    model = TrussModel(
        name=name,
        nodes=tuple(node_objs),
        elements=elem_objs,
        groups=tuple(sorted(groups, key=lambda g: g.id)),
        material=material,
        supports=tuple(support_objs),
        load_cases=tuple(case_objs),
        displacement_limits=tuple(dl_objs),
        provenance=provenance,
    )
    return validate(model)


def validate(model):
    """Check every model invariant; return the model or raise ValidationError.

    All violations are collected before raising so an error report names
    every offending node/element, not just the first.
    """
    problems = []
    n = model.n_nodes

    ids = [nd.id for nd in model.nodes]
    if ids != list(range(n)):
        problems.append(("BadNodeIds", f"node ids must be contiguous from 0, got {ids}"))
    for nd in model.nodes:
        if not all(np.isfinite(nd.coords)):
            problems.append(("NonFiniteCoords", f"node {nd.id} has non-finite coordinates"))

    group_ids = {g.id for g in model.groups}
    coords = {nd.id: np.array(nd.coords) for nd in model.nodes}
    used_groups = set()
    for e in model.elements:
        if e.node_a == e.node_b:
            problems.append(("ZeroLengthElement", f"element {e.id} connects node {e.node_a} to itself"))
        for nid in (e.node_a, e.node_b):
            if not (0 <= nid < n):
                problems.append(("DanglingReference", f"element {e.id} references missing node {nid}"))
        if e.group not in group_ids:
            problems.append(("DanglingReference", f"element {e.id} references missing group {e.group}"))
        used_groups.add(e.group)
        if e.node_a in coords and e.node_b in coords and e.node_a != e.node_b:
            if np.linalg.norm(coords[e.node_b] - coords[e.node_a]) < 1e-12:
                problems.append(("ZeroLengthElement", f"element {e.id} has zero length"))

    for g in model.groups:
        if not all(map(math.isfinite, (g.area_min, g.area_max))):
            problems.append(("NonFiniteBound", f"group {g.id} has a non-finite area bound"))
        elif not (0 < g.area_min <= g.area_max):
            problems.append(("NonPositiveLimit", f"group {g.id} needs 0 < area_min <= area_max"))
        if not (g.stress_tension_limit > 0 and g.stress_compression_limit > 0):
            problems.append(("NonPositiveLimit", f"group {g.id} stress limits must be positive"))
        if g.buckling is not None and not g.buckling.K > 0:
            problems.append(("NonPositiveLimit", f"group {g.id} buckling constant must be positive"))
        if g.id not in used_groups:
            problems.append(("EmptyGroup", f"group {g.id} has no elements"))

    if not (model.material.elastic_modulus > 0 and model.material.weight_density > 0):
        problems.append(("NonPositiveLimit", "material constants must be positive"))

    for s in model.supports:
        if not (0 <= s.node < n):
            problems.append(("DanglingReference", f"support references missing node {s.node}"))
        bad = s.fixed_dofs.difference(DOF_NAMES)
        if bad:
            problems.append(("UnknownDof", f"support on node {s.node} fixes unknown dofs {sorted(bad, key=str)}"))

    for lc in model.load_cases:
        any_nonzero = False
        for nid, f in lc.point_loads:
            if not (0 <= nid < n):
                problems.append(("DanglingReference", f"load case {lc.id} references missing node {nid}"))
            if any(v != 0.0 for v in f):
                any_nonzero = True
            if not all(map(math.isfinite, f)):
                problems.append(("NonFiniteLoad", f"load case {lc.id} has a non-finite load on node {nid}"))
        if not any_nonzero:
            problems.append(("NonPositiveLimit", f"load case {lc.id} has no nonzero load"))

    for dl in model.displacement_limits:
        if not dl.limit > 0:
            problems.append(("NonPositiveLimit", "displacement limit must be positive"))
        for nid in dl.nodes:
            if not (0 <= nid < n):
                problems.append(("DanglingReference", f"displacement limit references missing node {nid}"))
        bad = dl.dofs.difference(DOF_NAMES)
        if bad:
            problems.append(("UnknownDof", f"displacement limit names unknown dofs {sorted(bad, key=str)}"))

    if not problems:
        if not np.any(~model.fixed_dof_mask()):
            problems.append(("NoFreeDofs", "every dof is fixed by supports"))

    if problems:
        raise ValidationError(problems)
    return model
