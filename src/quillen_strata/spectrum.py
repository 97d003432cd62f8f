"""Assembly of stratified spectra and their serialization.

Two assemblies of the same space: the strong form glues Weyl-orbit quotients
of strata as a disjoint union and attaches the edges between strata that the
theory's record gives; the weak form computes the colimit of the full
per-subgroup spectra over the orbit category.  Both are finite
labeled posets; check_agreement searches for a label/stratum/edge-preserving
isomorphism between them.

JSON schema "quillen-strata/1": {schema, meta: {group, theory, family,
bounds, mode, truncated}, points: [{id, stratum, label, closed}],
edges: [{from, to, kind, provenance}]}.  Output is deterministic and
integer/string-only, so golden-file comparisons are byte-exact.
"""

from _json import encode_basestring_ascii
from operator import itemgetter

from .orbit_cat import OrbitDiagram, build_orbit_category, colimit
from .strata import (UnsupportedTheory, stratum, theory_family_classes,
                     transition_map)

SCHEMA = "quillen-strata/1"


class SpacePoint(tuple):
    """A point of a space.  cls is the SubgroupClass of its stratum, among the
    classes of the space's group; inside the package strata are named by class,
    and the key in `stratum` is for output only.  A strong point's orbit is the
    sorted descriptor data of its Weyl orbit, its descriptor's data first."""

    __slots__ = ()
    id, stratum, label, closed, descriptor, cls, orbit = (
        property(itemgetter(i)) for i in range(7))

    def __new__(type_, id, stratum, label, closed, descriptor=None, cls=None, orbit=None):
        return tuple.__new__(type_, (id, stratum, label, closed, descriptor, cls, orbit))


class SpaceEdge(tuple):
    """An edge of a space; kind: internal | cross-stratum | external."""

    __slots__ = ()
    src, dst, kind, provenance = (property(itemgetter(i)) for i in range(4))

    def __new__(cls, src, dst, kind, provenance=""):
        return tuple.__new__(cls, (src, dst, kind, provenance))


class StratifiedSpace:
    """A stratified space: its meta dict, sorted points and sorted edges, in
    the order every writer keeps."""

    __slots__ = ("meta", "points", "edges")

    def __init__(self, meta, points, edges):
        self.meta, self.points, self.edges = meta, points, edges

    def closed_points(self):
        return [pt for pt in self.points if pt.closed]

    def solid_edges(self):
        return [e for e in self.edges if e.kind != "external"]


def _class_keys(members):
    """Canonical stratum key per family class: o<order>.<i> within equal orders."""
    counts = {}
    keys = {}
    for cls in members:
        i = counts.get(cls.order, 0)
        counts[cls.order] = i + 1
        keys[cls.index] = "o%d.%d" % (cls.order, i)
    return keys


def _meta(theory, group_label, mode, truncated):
    return {
        "group": group_label,
        "theory": theory.name,
        "family": theory.family().name,
        "bounds": {"prime": theory.prime_bound, "degree": theory.degree_bound},
        "mode": mode,
        "truncated": truncated,
    }


def _representative(points):
    """The point that stands for a Weyl orbit in both forms: the one with the
    least descriptor data."""
    return min(points, key=lambda pt: pt.descriptor.data)


def assemble_strong(theory, G, group_label=""):
    """Disjoint union of Weyl-orbit quotients of strata with specialization edges."""
    members = theory_family_classes(theory, G)
    keys = _class_keys(members)
    points = []
    edges = set()
    truncated = False
    for cls in members:
        model = stratum(theory, cls)
        skey = keys[cls.index]
        truncated = truncated or model.truncated
        pid_of = {}    # point index -> id of its orbit's point
        for orb in model.orbits():
            if len(orb) == 1:   # nearly every orbit
                rp = model.points[orb[0]]
                orbit = (rp.descriptor.data,)
            else:
                rp = _representative(model.points[i] for i in orb)
                orbit = tuple(sorted(model.points[i].descriptor.data for i in orb))
            pid = "%s:%s" % (skey, rp.local_id)
            points.append(SpacePoint(pid, skey, rp.label, rp.closed, rp.descriptor, cls,
                                     orbit))
            for i in orb:
                pid_of[i] = pid
        for (i, j) in model.internal_edges:
            if pid_of[i] != pid_of[j]:
                edges.add(SpaceEdge(pid_of[i], pid_of[j], "internal"))
    if theory.record.glue:  # None: no edges between strata
        edges.update(SpaceEdge(*edge) for edge in theory.record.glue(theory, members, points))
    return _space(_meta(theory, group_label, "strong", truncated), points, edges)


def _space(meta, points, edges):
    """The space with points sorted by id, each id once, and edges by all
    four fields."""
    points = sorted(points, key=lambda pt: pt.id)
    for a, b in zip(points, points[1:]):
        if a.id == b.id:
            raise UnsupportedTheory("duplicate point id %s" % a.id)
    return StratifiedSpace(meta=meta, points=points, edges=sorted(edges))


def assemble_weak(theory, G, group_label=""):
    """Colimit of full per-subgroup spectra over the Quillen orbit category."""
    if theory.record.glue is None:
        raise UnsupportedTheory(
            "theory %s has no transition maps; weak assembly unavailable"
            % theory.name)
    members = theory_family_classes(theory, G)
    keys = _class_keys(members)
    cat = build_orbit_category(G, members)
    spaces = [assemble_strong(theory, cls) for cls in members]
    point_index = [{pt.id: pt for pt in space.points} for space in spaces]
    diagram = OrbitDiagram(
        category=cat,
        point_sets={i: tuple(pt.id for pt in space.points)
                    for i, space in enumerate(spaces)},
        maps={m: transition_map(theory, m.witness, spaces[m.src].points,
                                spaces[m.dst].points)
              for m in cat.all_morphisms()})
    weak_points = []
    proj_id = {}
    for cid, ms in colimit(diagram):
        # the members lying in the V^+ part of their object (the stratum of
        # the object itself) form one Weyl orbit inside a single stratum
        # (disjointness of the decomposition)
        owners = [(i, pid) for (i, pid) in ms
                  if point_index[i][pid].cls.mask == members[i].mask]
        if len({i for (i, _) in owners}) != 1:
            raise UnsupportedTheory(
                "colimit class %r meets %d strata" % (cid, len({i for i, _ in owners})))
        oi = owners[0][0]
        opt = _representative(point_index[i][pid] for i, pid in owners)
        wid = min("%s|%s" % (keys[members[i].index], pid) for (i, pid) in ms)
        wpt = SpacePoint(
            id=wid, stratum=keys[members[oi].index], label=opt.label,
            closed=opt.closed, descriptor=opt.descriptor, cls=members[oi])
        weak_points.append(wpt)
        for mkey in ms:
            proj_id[mkey] = wid

    stratum_of = {pt.id: pt.stratum for pt in weak_points}
    weak_edges = set()
    for i, space in enumerate(spaces):
        for e in space.edges:
            src, dst = proj_id[(i, e.src)], proj_id[(i, e.dst)]
            if src != dst:
                kind = e.kind if e.kind == "external" else (
                    "internal" if stratum_of[src] == stratum_of[dst] else "cross-stratum")
                weak_edges.add(SpaceEdge(src, dst, kind, e.provenance))
    truncated = any(space.meta["truncated"] for space in spaces)
    return _space(_meta(theory, group_label, "weak", truncated), weak_points, weak_edges)


# -- isomorphism check ---------------------------------------------------------

class SpaceIsoReport:
    """Isomorphic or not, with a witness {strong id: weak id} or an obstruction."""

    __slots__ = ("isomorphic", "witness", "obstruction")

    def __init__(self, isomorphic, witness=None, obstruction=""):
        self.isomorphic, self.witness, self.obstruction = isomorphic, witness, obstruction


def _invariant_multiset(space):
    indeg = {pt.id: 0 for pt in space.points}
    outdeg = {pt.id: 0 for pt in space.points}
    for e in space.solid_edges():
        outdeg[e.src] += 1
        indeg[e.dst] += 1
    inv = {}
    for pt in space.points:
        key = (pt.stratum, pt.label, pt.closed, indeg[pt.id], outdeg[pt.id])
        inv.setdefault(key, []).append(pt.id)
    return inv


def _counts(inv, fields):
    """Point counts per invariant key cut to its first fields."""
    counts = {}
    for key, ids in inv.items():
        counts[key[:fields]] = counts.get(key[:fields], 0) + len(ids)
    return counts


def check_agreement(strong, weak):
    """Search for a label/stratum/edge-preserving isomorphism of posets.

    Points must match in stratum, label and closedness, and the solid
    (internal and cross-stratum) edges must correspond; external (dashed)
    edges are excluded from the order comparison.
    """
    inv_s = _invariant_multiset(strong)
    inv_w = _invariant_multiset(weak)
    if _counts(inv_s, 5) != _counts(inv_w, 5):
        same_labels = _counts(inv_s, 3) == _counts(inv_w, 3)
        kind = "degree sequence mismatch" if same_labels else "label multiset mismatch"
        return SpaceIsoReport(False, obstruction=kind)

    order = [pid for key in sorted(inv_s) for pid in sorted(inv_s[key])]
    cands = {pid: sorted(inv_w[key]) for key in inv_s for pid in inv_s[key]}
    # (successors, predecessors) of each point along the solid edges
    adj_s = {pt.id: (set(), set()) for pt in strong.points}
    adj_w = {pt.id: (set(), set()) for pt in weak.points}
    for adj, space in ((adj_s, strong), (adj_w, weak)):
        for e in space.solid_edges():
            adj[e.src][0].add(e.dst)
            adj[e.dst][1].add(e.src)

    assignment = {}  # strong id -> weak id
    inverse = {}     # weak id -> strong id

    def consistent(sid, wid):
        """Whether sid -> wid keeps every edge to or from an assigned point."""
        for near_s, near_w in zip(adj_s[sid], adj_w[wid]):  # successors, predecessors
            if any(a in assignment and assignment[a] not in near_w for a in near_s):
                return False
            if any(b in inverse and inverse[b] not in near_s for b in near_w):
                return False
        return True

    # no recursion: order[:k] is assigned, and tried[k] candidates of order[k] spent
    tried = [0] * (len(order) + 1)
    k = 0
    while 0 <= k < len(order):
        sid = order[k]
        for pos in range(tried[k], len(cands[sid])):
            wid = cands[sid][pos]
            if wid not in inverse and consistent(sid, wid):
                assignment[sid], inverse[wid] = wid, sid
                tried[k] = pos + 1
                k += 1
                tried[k] = 0
                break
        else:
            k -= 1
            if k >= 0:
                del inverse[assignment.pop(order[k])]
    if k == len(order):
        return SpaceIsoReport(True, witness=dict(assignment))
    return SpaceIsoReport(False, obstruction="exhausted search")


# -- serialization -------------------------------------------------------------

def to_document(space):
    return {
        "schema": SCHEMA,
        "meta": space.meta,
        "points": [
            {"id": pt.id, "stratum": pt.stratum, "label": pt.label,
             "closed": pt.closed}
            for pt in space.points],
        "edges": [
            {"from": e.src, "to": e.dst, "kind": e.kind,
             "provenance": e.provenance}
            for e in space.edges],
    }


def json_text(value, indent="\n"):
    """json.dumps(value, sort_keys=True, indent=2), each line break written as
    indent, for str, int, bool, None and lists, tuples and str-keyed dicts of
    them; any other type raises TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items, brackets = [json_text(item, inner) for item in value], "[]"
    elif isinstance(value, dict):  # the escaper refuses a non-str key
        items, brackets = [encode_basestring_ascii(key) + ": " + json_text(value[key], inner)
                           for key in sorted(value)], "{}"
    else:
        raise TypeError("%s is not JSON serializable" % type(value).__name__)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


_POINT = ('    {\n      "closed": %s,\n      "id": %s,\n      "label": %s,\n'
          '      "stratum": %s\n    }')
_EDGE = ('    {\n      "from": %s,\n      "kind": %s,\n      "provenance": %s,\n'
         '      "to": %s\n    }')


def _json_bool(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError("closed must be a bool, not %s" % type(value).__name__)


def _json_list(items):
    return "[\n%s\n  ]" % ",\n".join(items) if items else "[]"


def to_json(space):
    """The text of json.dumps(to_document(space), sort_keys=True, indent=2)
    plus a newline, written in one pass: one template per point and per edge,
    strings through the C escaper, which raises TypeError on a non-str."""
    q = encode_basestring_ascii
    points = [_POINT % (_json_bool(pt.closed), q(pt.id), q(pt.label), q(pt.stratum))
              for pt in space.points]
    edges = [_EDGE % (q(e.src), q(e.kind), q(e.provenance), q(e.dst))
             for e in space.edges]
    meta = json_text(space.meta, "\n  ")
    return '{\n  "edges": %s,\n  "meta": %s,\n  "points": %s,\n  "schema": %s\n}\n' % (
        _json_list(edges), meta, _json_list(points), q(SCHEMA))


def serialize(space, fmt="json"):
    if fmt == "json":
        return to_json(space)
    if fmt == "dot":
        return to_dot(space)
    if fmt == "table":
        return to_table(space)
    raise ValueError("unknown format %r" % (fmt,))


def to_dot(space):
    lines = ["digraph spectrum {"]
    for pt in space.points:
        shape = ' shape=box' if pt.closed else ""
        lines.append('  "%s" [label="%s [%s]"%s];' % (pt.id, pt.label, pt.stratum, shape))
    for e in space.edges:
        style = " [style=dashed]" if e.kind == "external" else ""
        lines.append('  "%s" -> "%s"%s;' % (e.src, e.dst, style))
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_table(space):
    import json
    lines = ["# %s" % json.dumps(space.meta, sort_keys=True)]
    lines.append("points (%d):" % len(space.points))
    for pt in space.points:
        flag = "closed" if pt.closed else "generic"
        lines.append("  %-28s %-20s %-8s stratum=%s" % (pt.id, pt.label, flag, pt.stratum))
    lines.append("edges (%d):" % len(space.edges))
    for e in space.edges:
        prov = " (%s)" % e.provenance if e.provenance else ""
        lines.append("  %s -> %s [%s]%s" % (e.src, e.dst, e.kind, prov))
    return "\n".join(lines) + "\n"


def deserialize(text):
    import json
    doc = json.loads(text)
    try:
        if doc.get("schema") != SCHEMA:
            raise ValueError("unknown schema %r" % (doc.get("schema"),))
        points = [SpacePoint(p["id"], p["stratum"], p["label"], p["closed"])
                  for p in doc["points"]]
        edges = [SpaceEdge(e["from"], e["to"], e["kind"], e.get("provenance", ""))
                 for e in doc["edges"]]
        meta = doc["meta"]
    except (KeyError, TypeError, AttributeError) as exc:  # a missing or mistyped field
        raise ValueError("bad spectrum document: %r" % exc) from None
    return _space(meta, points, edges)
