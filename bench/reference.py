"""Independent reference analyzer, used only by the benchmark's checks.

It reads a model from its JSON document (the schema written by
`trussopt.io.serialize_model`) and shares no code with `trussopt`: the
global stiffness matrix is assembled element by element from node
coordinates, connectivity, groups and supports, and the reduced system
is solved by LU (`numpy.linalg.solve`) instead of Cholesky. Every
normalized constraint is then recomputed from the stresses and
displacements, so a check that passes here does not rest on the code it
checks.
"""

import math

import numpy as np

AXES = "xyz"


def _limit(value):
    # null in a document means unconstrained
    return math.inf if value is None else float(value)


class Truss:
    """One model document, ready for repeated reference analyses."""

    def __init__(self, doc):
        self.name = doc["name"]
        self.E = float(doc["material"]["elastic_modulus"])
        self.density = float(doc["material"]["weight_density"])
        nodes = sorted(doc["nodes"], key=lambda n: n["id"])
        self.coords = np.array([[n["x"], n["y"], n["z"]] for n in nodes],
                               dtype=float)
        # the design vector holds one area per group, in group-id order
        self.groups = sorted(doc["groups"], key=lambda g: g["id"])
        position = {g["id"]: i for i, g in enumerate(self.groups)}
        self.elements = [(e["a"], e["b"], position[e["group"]])
                         for e in sorted(doc["elements"], key=lambda e: e["id"])]
        ndof = 3 * len(nodes)
        fixed = {3 * s["node"] + AXES.index(d)
                 for s in doc["supports"] for d in s["fixed"]}
        self.free = [i for i in range(ndof) if i not in fixed]
        self.loads = np.zeros((ndof, len(doc["load_cases"])))
        for j, case in enumerate(doc["load_cases"]):
            for ld in case["loads"]:
                base = 3 * ld["node"]
                self.loads[base:base + 3, j] += (ld["fx"], ld["fy"], ld["fz"])
        self.displacement_limits = [
            (node, AXES.index(d), float(dl["limit"]))
            for dl in doc.get("displacement_limits", [])
            for node in sorted(dl["nodes"]) for d in sorted(dl["dofs"])]

    @property
    def n_groups(self):
        return len(self.groups)

    def bounds(self):
        lo = np.array([g["area_min"] for g in self.groups], dtype=float)
        hi = np.array([g["area_max"] for g in self.groups], dtype=float)
        return lo, hi

    def _geometry(self, a, b):
        d = self.coords[b] - self.coords[a]
        length = math.sqrt(float(d @ d))
        return length, d / length

    def analyze(self, areas):
        """(weight, stresses (n_elements, n_cases), displacements
        (n_dofs, n_cases)) at a design vector."""
        areas = np.asarray(areas, dtype=float)
        ndof = self.loads.shape[0]
        K = np.zeros((ndof, ndof))
        weight = 0.0
        for a, b, g in self.elements:
            length, c = self._geometry(a, b)
            weight += self.density * areas[g] * length
            k = self.E * areas[g] / length * np.outer(c, c)
            ia, ib = slice(3 * a, 3 * a + 3), slice(3 * b, 3 * b + 3)
            K[ia, ia] += k
            K[ib, ib] += k
            K[ia, ib] -= k
            K[ib, ia] -= k
        free = np.array(self.free)
        U = np.zeros_like(self.loads)
        U[free] = np.linalg.solve(K[np.ix_(free, free)], self.loads[free])
        stresses = np.empty((len(self.elements), U.shape[1]))
        for i, (a, b, _) in enumerate(self.elements):
            length, c = self._geometry(a, b)
            elongation = c @ (U[3 * b:3 * b + 3] - U[3 * a:3 * a + 3])
            stresses[i] = self.E * elongation / length
        return weight, stresses, U

    def constraints(self, areas):
        """(weight, normalized constraint values g); g > 0 is violated.

        Stress by sign against the tension or compression limit; Euler
        buckling -sigma / (K*E*A/L^2) - 1 for compressed members of groups
        with a buckling constant; |u|/limit - 1 for limited displacements.
        """
        areas = np.asarray(areas, dtype=float)
        weight, stresses, U = self.analyze(areas)
        rows = []
        for j in range(U.shape[1]):
            for i, (a, b, g) in enumerate(self.elements):
                s = stresses[i, j]
                group = self.groups[g]
                if s >= 0:
                    rows.append(s / _limit(group["stress_tension"]) - 1.0)
                    continue
                rows.append(-s / _limit(group["stress_compression"]) - 1.0)
                if "buckling_k" in group:
                    length, _ = self._geometry(a, b)
                    euler = group["buckling_k"] * self.E * areas[g] / length ** 2
                    rows.append(-s / euler - 1.0)
            for node, axis, limit in self.displacement_limits:
                rows.append(abs(U[3 * node + axis, j]) / limit - 1.0)
        return weight, np.array(rows)


def _close(value, expected, rel=1e-9):
    return abs(value - expected) <= rel * max(1.0, abs(expected))


def self_check(doc_18bar):
    """Check the analyzer against hand statics; returns a list of problems."""
    problems = []

    # single bar along x, pinned at node 0, roller at node 1: u = PL/AE
    P, L, A, E = 10.0, 100.0, 2.0, 1.0e4
    bar = Truss({
        "name": "bar", "material": {"elastic_modulus": E, "weight_density": 0.1},
        "nodes": [{"id": 0, "x": 0.0, "y": 0.0, "z": 0.0},
                  {"id": 1, "x": L, "y": 0.0, "z": 0.0}],
        "groups": [{"id": 0, "area_min": 0.1, "area_max": 10.0,
                    "stress_tension": 20.0, "stress_compression": 20.0}],
        "elements": [{"id": 0, "a": 0, "b": 1, "group": 0}],
        "supports": [{"node": 0, "fixed": ["x", "y", "z"]},
                     {"node": 1, "fixed": ["y", "z"]}],
        "load_cases": [{"id": 0, "loads": [{"node": 1, "fx": P, "fy": 0.0,
                                            "fz": 0.0}]}]})
    weight, stresses, U = bar.analyze([A])
    if not (_close(U[3, 0], P * L / (A * E)) and _close(stresses[0, 0], P / A)
            and _close(weight, 0.1 * A * L)):
        problems.append("reference: single bar does not give u = PL/AE")

    # 3-4-5 two-bar truss: bars of length 30 and 40 meet at a right angle
    # at the loaded node; equilibrium gives forces -0.8P and -0.6P
    P, A1, A2 = 10.0, 2.0, 4.0
    two = Truss({
        "name": "345", "material": {"elastic_modulus": 3.0e4, "weight_density": 0.1},
        "nodes": [{"id": 0, "x": 0.0, "y": 0.0, "z": 0.0},
                  {"id": 1, "x": 50.0, "y": 0.0, "z": 0.0},
                  {"id": 2, "x": 18.0, "y": 24.0, "z": 0.0}],
        "groups": [{"id": 0, "area_min": 0.1, "area_max": 10.0,
                    "stress_tension": 20.0, "stress_compression": 20.0},
                   {"id": 1, "area_min": 0.1, "area_max": 10.0,
                    "stress_tension": 20.0, "stress_compression": 20.0}],
        "elements": [{"id": 0, "a": 0, "b": 2, "group": 0},
                     {"id": 1, "a": 1, "b": 2, "group": 1}],
        "supports": [{"node": 0, "fixed": ["x", "y", "z"]},
                     {"node": 1, "fixed": ["x", "y", "z"]},
                     {"node": 2, "fixed": ["z"]}],
        "load_cases": [{"id": 0, "loads": [{"node": 2, "fx": 0.0, "fy": -P,
                                            "fz": 0.0}]}]})
    _, stresses, _ = two.analyze([A1, A2])
    if not (_close(stresses[0, 0], -0.8 * P / A1)
            and _close(stresses[1, 0], -0.6 * P / A2)):
        problems.append("reference: 3-4-5 truss stresses differ from statics")

    # 18bar is statically determinate: member forces do not depend on
    # the areas; elements 17 and 14 carry -300 and -100 kips
    t18 = Truss(doc_18bar)
    for areas in ([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 5.0, 7.0]):
        areas = np.array(areas)
        _, stresses, _ = t18.analyze(areas)
        forces = stresses[:, 0] * areas[[g for _, _, g in t18.elements]]
        if not (_close(forces[17], -300.0) and _close(forces[14], -100.0)):
            problems.append(f"reference: 18bar forces at {areas.tolist()} "
                            "are not -300/-100 kips on elements 17/14")
    return problems
