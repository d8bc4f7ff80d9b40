"""JSON encodings shared by the command-line front end.

Conventions: rationals serialize as ``str(Fraction)``, the ``"p/q"`` string
(plain ``"p"`` when the denominator is 1), and integers stay JSON numbers.
Both rules keep the wire format exact.

The commands write their JSON through one record writer, ``JsonWriter``,
record by record as each is made, byte for byte as ``json.dumps(payload,
indent=2)`` prints the payload: strings through ``encode_basestring_ascii``,
integers through ``int.__repr__``, and ``true``, ``false`` and ``null`` as
they are.  No payload dict and no whole text is built.  A command's
subset texts are made once each, and a chain's text is the join of its
prefixes' texts.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as quote
from typing import Callable, Iterable, Sequence

from .fan import Fan, basis_labels, ray_vector
from .lattice import ArrangementSpec, Chain, DecoratedSubset, parse_chain, parse_subset
from .linalg import RowTest
from .normal_complex import Polytope

_int = int.__repr__  # json.dumps's text of an integer
_NL = tuple("\n" + "  " * depth for depth in range(8))  # a line at each depth


def scalar(x: int | str | bool | None) -> str:
    """One JSON scalar as ``json.dumps`` writes it."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    return _int(x) if isinstance(x, int) else quote(x)


def _block(open_: str, items: Sequence[str], close: str, depth: int) -> str:
    if not items:
        return open_ + close
    inner = _NL[depth + 1]
    return open_ + inner + ("," + inner).join(items) + _NL[depth] + close


def array(items: Sequence[str], depth: int) -> str:
    """The JSON array of the encoded ``items``, opened on a line at ``depth``
    (two spaces a level)."""
    return _block("[", items, "]", depth)


def template(keys: Sequence[str], depth: int) -> str:
    """The ``%``-format of a JSON object with these keys, one ``%s`` per
    encoded value, opened on a line at ``depth``."""
    return _block("{", [quote(k) + ": %s" for k in keys], "}", depth)


class JsonWriter:
    """One top-level JSON object, written member by member through
    ``write`` and ended by a newline; an array member's items are written
    one at a time, as they come."""

    def __init__(self, write: Callable[[str], object]) -> None:
        self._write = write
        self._written = False

    def _key(self, key: str) -> str:
        head = ("," if self._written else "{") + _NL[1] + quote(key) + ": "
        self._written = True
        return head

    def member(self, key: str, text: str) -> None:
        """A member whose value is the encoded ``text``."""
        self._write(self._key(key) + text)

    def items(self, key: str, texts: Iterable[str]) -> None:
        """A member whose value is the array of the encoded ``texts``,
        each opened on a line at depth 2."""
        write = self._write
        write(self._key(key) + "[")
        sep = _NL[2]
        for text in texts:
            write(sep + text)
            sep = "," + _NL[2]
        write("]" if sep == _NL[2] else _NL[1] + "]")  # [] when no item came

    def close(self) -> None:
        self._write(_NL[0] + "}\n" if self._written else "{}\n")


def _fractions(xs: Iterable[Fraction], depth: int) -> str:
    return array([quote(str(x)) for x in xs], depth)


def fan_listing(fan: Fan) -> tuple[list[DecoratedSubset], list[str], list[tuple[int, ...]]]:
    """The order of every fan output: the rays' subsets in the global
    order, whose positions are the ray ids, their texts, and each cone as
    its ray ids, by dimension and then by those ids."""
    subsets = sorted(fan.rays, key=DecoratedSubset.sort_key)
    ids = {d: k for k, d in enumerate(subsets)}
    # a chain's prefixes grow in size, so their ids increase along it
    cones = sorted([tuple([ids[d] for d in chain.prefixes]) for chain in fan.chains])
    cones.sort(key=len)
    return subsets, [d.text() for d in subsets], cones


def chain_text(prefixes: Iterable, texts) -> str:
    """``Chain.text`` of the chain of these prefixes, from ``texts``, which
    maps each prefix (a subset or its ray id) to its text."""
    return "<".join([texts[k] for k in prefixes]) or "{}"


def write_fan(fan: Fan, write: Callable[[str], object]) -> None:
    """``fan --format json``: the JSON of ``fan_to_dict``."""
    subsets, texts, cones = fan_listing(fan)
    out = JsonWriter(write)
    out.member("r", _int(fan.spec.r))
    out.member("n", _int(fan.spec.n))
    out.member("basis", array([quote(b) for b in basis_labels(fan.spec)], 1))
    ray = template(("id", "subset", "vector"), 2)
    out.items(
        "rays",
        (ray % (k, quote(texts[k]), array(list(map(_int, fan.rays[d])), 3)) for k, d in enumerate(subsets)),
    )
    cone = template(("dim", "ray_ids", "chain"), 2)
    out.items(
        "cones",
        (cone % (len(ids), array(list(map(_int, ids)), 3), quote(chain_text(ids, texts))) for ids in cones),
    )
    out.close()


# a row of the chow command's rank table: k, the closed form's rank, the
# oracle's (None when its guard refused) and whether they match
BettiRow = tuple[int, int, int | None, bool | None]


def write_chow(
    spec: ArrangementSpec,
    rows: Sequence[BettiRow],
    presentation: tuple[Sequence[DecoratedSubset], dict] | None,
    write: Callable[[str], object],
) -> None:
    """``chow --format json``: the rank table, then the presentation unless
    it is None; each relation's coefficients keyed by generator index."""
    out = JsonWriter(write)
    out.member("r", _int(spec.r))
    out.member("n", _int(spec.n))
    betti = template(("k", "closed_form", "oracle", "match"), 2)
    out.items("betti", (betti % tuple(map(scalar, row)) for row in rows))
    if presentation is None:
        out.close()
        return
    generators, relations = presentation
    out.items("generators", (quote(d.text()) for d in generators))
    keys = [quote(str(k)) + ": " for k in range(len(generators))]
    relation = template(("i", "a", "b", "coefficients"), 2)
    out.items(
        "linear_relations",
        (
            relation % (i, a, b, _block("{", [keys[k] + _int(c) for k, c in coeffs], "}", 3))
            for (i, a, b), coeffs in relations.items()
        ),
    )
    out.items("reduced_relation_indices", (_int(k) for k, (_, a, _) in enumerate(relations) if a == 0))
    out.close()


def write_point(spec: ArrangementSpec, chain: Chain | None, point: Sequence[Fraction], write: Callable[[str], object]) -> None:
    """``locate --format json``: the point's chain, or null off the support."""
    out = JsonWriter(write)
    out.member("r", _int(spec.r))
    out.member("n", _int(spec.n))
    out.member("chain", scalar(None if chain is None else chain.text()))
    out.member("point", _fractions(point, 1))
    out.member("in_support", scalar(chain is not None))
    out.close()


class _Memo(dict):
    """``make``'s value at each key, made on first use."""

    def __init__(self, make: Callable) -> None:
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


def write_cells(
    spec: ArrangementSpec,
    cells: Sequence[Polytope],
    extremes: Sequence[Sequence[Fraction]] | None,
    write: Callable[[str], object],
) -> None:
    """``normal-complex --format json``: each cell's chain, ``h_rep`` and
    vertices, then the union extremes unless they are None.  A row's text
    is made once per distinct stored row; the cells share most of them."""
    zero, dim = quote("0"), spec.ambient_dim
    row_format = template(("normal", "bound"), 4)

    def row_text(row: tuple[RowTest, int]) -> str:
        (pairs, _, bound), scale = row
        normal = [zero] * dim
        for f, a in pairs:
            normal[f] = quote(str(Fraction(a, scale)))
        return row_format % (array(normal, 5), quote(str(Fraction(bound, scale))))

    texts, row_texts = _Memo(DecoratedSubset.text), _Memo(row_text)
    cell_format = template(("chain", "h_rep", "vertices"), 2)

    def cell_text(cell: Polytope) -> str:
        chain = chain_text(cell.label.prefixes, texts)
        rows = [row_texts[row] for row in cell.integer_rows]
        vertices = [_fractions(v, 4) for v in cell.v_rep]
        return cell_format % (quote(chain), array(rows, 3), array(vertices, 3))

    out = JsonWriter(write)
    out.member("r", _int(spec.r))
    out.member("n", _int(spec.n))
    out.items("cells", map(cell_text, cells))
    if extremes is not None:
        out.member("union_extremes", array([_fractions(p, 2) for p in extremes], 1))
    out.close()


def fan_to_dict(fan: Fan) -> dict:
    """The fan as one JSON dictionary.

    No command calls it (``write_fan`` writes the same JSON record by
    record); it stays as the tests' reference for that output and their
    round trip through ``fan_from_dict``.
    """
    subsets = sorted(fan.rays, key=DecoratedSubset.sort_key)
    ids = {d: k for k, d in enumerate(subsets)}
    rays = [
        {"id": ids[d], "subset": d.text(), "vector": list(fan.rays[d])}
        for d in subsets
    ]
    cones = [
        {"dim": chain.length, "ray_ids": sorted(ids[d] for d in chain.prefixes), "chain": chain.text()}
        for chain in fan.chains
    ]
    # distinct cones have distinct ray sets, so this order is total
    cones.sort(key=lambda c: (c["dim"], c["ray_ids"]))
    return {
        "r": fan.spec.r,
        "n": fan.spec.n,
        "basis": basis_labels(fan.spec),
        "rays": rays,
        "cones": cones,
    }


def fan_from_dict(data: dict) -> Fan:
    """Rebuild a fan from its JSON dictionary (inverse of fan_to_dict).

    No command calls it; it stays as the reference the tests round-trip the
    ``fan --format json`` output through.
    """

    def integer(x: object) -> int:
        # int() would truncate 2.5 and read "1_0" as 10
        if type(x) is not int:
            raise ValueError(f"{x!r} is not a JSON integer")
        return x

    spec = ArrangementSpec(integer(data["r"]), integer(data["n"]))
    subsets_by_id: dict[int, DecoratedSubset] = {}
    rays: dict[DecoratedSubset, tuple[int, ...]] = {}
    for entry in data["rays"]:
        d = parse_subset(entry["subset"], spec)
        vec = tuple(integer(x) for x in entry["vector"])
        if vec != ray_vector(d, spec):
            raise ValueError(f"ray vector for {d.text()} does not match its subset")
        subsets_by_id[integer(entry["id"])] = d
        rays[d] = vec
    chains = []
    for entry in data["cones"]:
        chain = Chain.from_prefixes(subsets_by_id[integer(k)] for k in entry["ray_ids"])
        if parse_chain(entry["chain"], spec) != chain:
            raise ValueError(f"cone chain {entry['chain']!r} does not match ray ids")
        chains.append(chain)
    return Fan.from_chains(spec, rays, chains)
