"""Immutable problem data model for pin-jointed truss sizing optimization.

Units are imperial throughout: coordinates in inches, areas in in^2,
forces in kips, stresses in ksi, weight density in lb/in^3, weight in lb.
Nodes are the rows of one read-only (n_nodes, 3) coordinate array,
elements are (node_a, node_b, group) triples of Python ints, a load
case is a tuple of (node, (fx, fy, fz)) pairs, a support is a (node,
frozenset of dof names) pair and a displacement limit is a (frozenset of
nodes, frozenset of dof names, limit) triple. Every id is a position:
node i is row i, element i, group i (design variable i) and load case i
are the i-th entries of their tuples. Planar models simply keep every z
coordinate and z load at zero; make_model then fixes the z dofs through
their supports.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

DOF_NAMES = ("x", "y", "z")
_DOF_INDEX = {d: i for i, d in enumerate(DOF_NAMES)}


def clamp(x, lo, hi):
    """x clamped elementwise into [lo, hi]: the values of np.clip(x, lo,
    hi), NaN included, at less call overhead."""
    return np.minimum(np.maximum(x, lo), hi)


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
class MemberGroup:
    area_min: float
    area_max: float
    stress_tension_limit: float      # ksi, magnitude (> 0, may be inf)
    stress_compression_limit: float  # ksi, magnitude (> 0, may be inf)
    buckling_k: Optional[float] = None  # Euler constant K; None: no buckling


@dataclass(frozen=True)
class Material:
    elastic_modulus: float  # ksi
    weight_density: float   # lb/in^3 (weight density, gravity already folded in)


@dataclass(frozen=True, eq=False)
class TrussModel:
    """Complete immutable truss definition.

    Supports are (node, frozenset of fixed dof names) pairs, and
    displacement limits are (frozenset of nodes, frozenset of dof names,
    limit) triples: each named dof of each named node stays within
    +/- limit inches. Instances are compared by identity (eq=False) so
    they stay hashable and key per-model caches such as
    analysis.get_analyzer's; io.models_equal compares content.
    """
    name: str
    coords: np.ndarray   # (n_nodes, 3) inches, read-only; row i is node i
    elements: tuple      # (node_a, node_b, group) ints; element i
    groups: tuple        # MemberGroup; group i is design variable i
    material: Material
    supports: tuple      # (node, fixed dofs) pairs
    load_cases: tuple    # per case, sorted (node, (fx, fy, fz)) pairs in kips
    displacement_limits: tuple = ()  # (nodes, dofs, limit) triples
    provenance: str = ""

    @property
    def n_nodes(self):
        return len(self.coords)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_groups(self):
        return len(self.groups)

    def area_bounds(self):
        """(lower, upper) arrays, one entry per group, design-vector order."""
        lo = np.array([g.area_min for g in self.groups], dtype=float)
        hi = np.array([g.area_max for g in self.groups], dtype=float)
        return lo, hi

    def fixed_dof_mask(self):
        """Boolean (n_nodes * 3,) mask of dofs eliminated by supports."""
        mask = np.zeros(self.n_nodes * 3, dtype=bool)
        mask[[3 * node + _DOF_INDEX[d]
              for node, dofs in self.supports for d in dofs]] = True
        return mask


def _force(force):
    f = tuple(map(float, force))
    return f + (0.0,) if len(f) == 2 else f


def _load_case(loads):
    """A load case as sorted (node, (fx, fy, fz)) pairs of an int and
    floats, from a {node: force} dict or an iterable of pairs."""
    pairs = loads.items() if isinstance(loads, dict) else loads
    return tuple(sorted((int(node), _force(f)) for node, f in pairs))


def make_model(name, nodes, elements, groups, material, supports, load_cases,
               displacement_limits=(), provenance=""):
    """Build and validate a TrussModel from plain python data.

    nodes: list of (x, y, z) or (x, y); row i of model.coords is node i.
    elements: list of (node_a, node_b, group); element i is the i-th.
    groups: list of MemberGroup; group i is the i-th.
    supports: list of (node, "xy" / "xyz" / iterable of dof names).
    load_cases: list of {node: (fx, fy, fz)} or of lists of (node, (fx,
        fy, fz)) pairs, which may repeat a node; case i is the i-th, a 2-D
        force gets fz = 0, and each case keeps its loads sorted.
    displacement_limits: list of (nodes, dofs, limit).

    Whatever the input's number types, the model keeps each element as a
    triple of Python ints, each load as an (int node, float 3-tuple) pair,
    each support as a (node, frozenset of dofs) pair and each displacement
    limit as a (frozenset of nodes, frozenset of dofs, float limit) triple.
    Planar models (all z == 0, no z loads) get one support per node: z
    fixed, unioned with every entry that names the node. An entry that
    names no node is kept after them, for validate to report.
    """
    rows = [c if len(c) == 3 else (*c, 0.0) for c in nodes]
    coords = np.array(rows, dtype=float).reshape(len(rows), 3)
    coords.flags.writeable = False
    elements = tuple((int(a), int(b), int(g)) for a, b, g in elements)
    cases = tuple(map(_load_case, load_cases))

    planar = not coords[:, 2].any() and all(
        f[2] == 0.0 for loads in cases for _, f in loads)

    supports = [(int(node_id), frozenset(dofs)) for node_id, dofs in supports]
    if planar:
        fixed = [frozenset("z")] * len(rows)
        dangling = []
        for node, dofs in supports:
            if 0 <= node < len(rows):
                fixed[node] = fixed[node] | dofs
            else:
                dangling.append((node, dofs))
        supports = [*enumerate(fixed), *dangling]

    limits = tuple((frozenset(map(int, node_ids)), frozenset(dofs), float(limit))
                   for node_ids, dofs, limit in displacement_limits)

    model = TrussModel(
        name=name,
        coords=coords,
        elements=elements,
        groups=tuple(groups),
        material=material,
        supports=tuple(supports),
        load_cases=cases,
        displacement_limits=limits,
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

    finite = np.isfinite(model.coords).all(axis=1).tolist()
    for i, ok in enumerate(finite):
        if not ok:
            problems.append(("NonFiniteCoords", f"node {i} has non-finite coordinates"))

    # a length is computed as Analyzer computes it, the root of the summed
    # squares, so finite ends whose length overflows there are caught here
    n_groups = model.n_groups
    xyz = model.coords.tolist()
    used_groups = set()
    for i, (a, b, g) in enumerate(model.elements):
        used_groups.add(g)
        if a == b:
            problems.append(("ZeroLengthElement", f"element {i} connects node {a} to itself"))
        for nid in (a, b):
            if not (0 <= nid < n):
                problems.append(("DanglingReference", f"element {i} references missing node {nid}"))
        if not (0 <= g < n_groups):
            problems.append(("DanglingReference", f"element {i} references missing group {g}"))
        if a != b and 0 <= a < n and 0 <= b < n:
            (xa, ya, za), (xb, yb, zb) = xyz[a], xyz[b]
            dx, dy, dz = xb - xa, yb - ya, zb - za
            length = math.sqrt(dx * dx + dy * dy + dz * dz)
            if length < 1e-12:
                problems.append(("ZeroLengthElement", f"element {i} has zero length"))
            elif finite[a] and finite[b] and not math.isfinite(length):
                problems.append(("NonFiniteLength", f"element {i} has a non-finite length"))

    # 0 < area_min <= area_max also fails on a NaN, as do the 0 < x < inf
    # checks of the buckling and material constants
    for i, g in enumerate(model.groups):
        if not all(map(math.isfinite, (g.area_min, g.area_max))):
            problems.append(("NonFiniteBound", f"group {i} has a non-finite area bound"))
        elif not (0 < g.area_min <= g.area_max):
            problems.append(("NonPositiveLimit", f"group {i} needs 0 < area_min <= area_max"))
        if not (g.stress_tension_limit > 0 and g.stress_compression_limit > 0):
            problems.append(("NonPositiveLimit", f"group {i} stress limits must be positive"))
        if g.buckling_k is not None and not 0 < g.buckling_k < math.inf:
            problems.append(("NonPositiveLimit", f"group {i} buckling constant must be positive and finite"))
        if i not in used_groups:
            problems.append(("EmptyGroup", f"group {i} has no elements"))

    if not (0 < model.material.elastic_modulus < math.inf
            and 0 < model.material.weight_density < math.inf):
        problems.append(("NonPositiveLimit", "material constants must be positive and finite"))

    for node, dofs in model.supports:
        if not (0 <= node < n):
            problems.append(("DanglingReference", f"support references missing node {node}"))
        bad = dofs.difference(DOF_NAMES)
        if bad:
            problems.append(("UnknownDof", f"support on node {node} fixes unknown dofs {sorted(bad, key=str)}"))

    for j, loads in enumerate(model.load_cases):
        for nid, f in loads:
            if not (0 <= nid < n):
                problems.append(("DanglingReference", f"load case {j} references missing node {nid}"))
            # each component on its own: a sum of finite ones may overflow
            if not all(map(math.isfinite, f)):
                problems.append(("NonFiniteLoad", f"load case {j} has a non-finite load on node {nid}"))
        # a NaN is nonzero too, as it is != 0.0
        if not any(any(f) for _, f in loads):
            problems.append(("NonPositiveLimit", f"load case {j} has no nonzero load"))
    if not model.load_cases:
        problems.append(("NoLoadCase", "model has no load case"))

    for nodes, dofs, limit in model.displacement_limits:
        if not limit > 0:
            problems.append(("NonPositiveLimit", "displacement limit must be positive"))
        for nid in sorted(nodes):
            if not (0 <= nid < n):
                problems.append(("DanglingReference", f"displacement limit references missing node {nid}"))
        bad = dofs.difference(DOF_NAMES)
        if bad:
            problems.append(("UnknownDof", f"displacement limit names unknown dofs {sorted(bad, key=str)}"))

    if not problems:
        if not np.any(~model.fixed_dof_mask()):
            problems.append(("NoFreeDofs", "every dof is fixed by supports"))

    if problems:
        raise ValidationError(problems)
    return model
