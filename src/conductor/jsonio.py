"""JSON loading and the wire formats accepted by the command line.

Groups come in as either permutation generators or a full multiplication
table; semidirect products as an H description plus automorphism images;
fields in the cyclotomic-subfield encoding of AbelianLocalField; and
presentation matrices with group-algebra entries as coefficient vectors.
Everything raises InputError with a location on malformed data.
"""

import json
from fractions import Fraction

from .errors import InputError
from .groups import ELEMENT_BOUND, FiniteGroup


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:  # RFC 8259: JSON is UTF-8
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise InputError("%s is not UTF-8: %s at byte %d" % (path, exc.reason, exc.start))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            "%s is not valid JSON: %s (line %d column %d)"
            % (path, exc.msg, exc.lineno, exc.colno)
        )
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InputError("%s has an integer too long to read: %s" % (path, exc))


def dump_json(payload):
    """Canonical serialization: sorted keys, two-space indent, no trailing
    whitespace, newline-terminated.  Re-parsing gives back the payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _require(obj, key, where):
    if not isinstance(obj, dict):
        raise InputError("%s: expected an object, got %s" % (where, type(obj).__name__))
    if key not in obj:
        raise InputError("%s: missing key %r" % (where, key))
    return obj[key]


def _integer(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError("%s: expected an integer, got %r" % (where, value))
    return value


def _integer_list(values, where, length=None):
    """A list of integers, of ``length`` if given.  A list of plain ints
    passes one type test an entry; any other is walked for the location."""
    if not isinstance(values, list):
        raise InputError("%s: expected a list of integers" % where)
    if length is not None and len(values) != length:
        raise InputError("%s: expected %d entries" % (where, length))
    if not all(type(x) is int for x in values):
        for i, x in enumerate(values):
            _integer(x, "%s[%d]" % (where, i))
    return values


def _integer_rows(rows, where, length=None):
    """A list of lists of integers, each of ``length`` if given."""
    if not isinstance(rows, list):
        raise InputError("%s: expected a list of rows" % where)
    for i, row in enumerate(rows):
        _integer_list(row, "%s[%d]" % (where, i), length)
    return rows


def group_from_json(obj, where="group"):
    """Accepts {"perm_gens": [...], "degree": d} or {"mult_table": [[...]]},
    optionally with a "name"."""
    if not isinstance(obj, dict):
        raise InputError("%s: expected an object" % where)
    name = obj.get("name", where)
    if not isinstance(name, str):
        raise InputError("%s: name must be a string" % where)
    if "perm_gens" in obj:
        gens = obj["perm_gens"]
        degree = _integer(_require(obj, "degree", where), "%s.degree" % where)
        if degree < 1:
            raise InputError("%s: degree must be a positive integer" % where)
        if degree > ELEMENT_BOUND:
            raise InputError(
                "%s.degree: %d exceeds the bound %d" % (where, degree, ELEMENT_BOUND)
            )
        _integer_rows(gens, "%s.perm_gens" % where, degree)
        return FiniteGroup.from_permutations(
            [tuple(g) for g in gens], degree, name=name
        )
    if "mult_table" in obj:
        table = _integer_rows(obj["mult_table"], "%s.mult_table" % where)
        if not table:
            raise InputError("%s: mult_table has no rows" % where)
        return FiniteGroup.from_table(table, name=name)
    raise InputError("%s: need either perm_gens/degree or mult_table" % where)


def alpha_images_from_json(obj, where="alpha"):
    """The automorphism is a bare list of images, or wrapped under
    "alpha_images" (or "images")."""
    if isinstance(obj, dict):
        for key in ("alpha_images", "images"):
            if key in obj:
                obj = obj[key]
                break
        else:
            raise InputError("%s: missing key 'alpha_images'" % where)
    if not isinstance(obj, list):
        raise InputError("%s: automorphism images must be a list of indices" % where)
    return _integer_list(obj, where)


def field_from_json(obj, p=None, where="field"):
    """{"p": p, "m": m, "stab_gens": [...]}; stab_gens defaults to [] and
    m is at most ELEMENT_BOUND."""
    from .localfields import AbelianLocalField

    for key in ("p", "m"):
        _integer(_require(obj, key, where), "%s.%s" % (where, key))
    # the field materializes its decomposition group, of up to m residues
    if obj["m"] > ELEMENT_BOUND:
        raise InputError("%s.m: %d exceeds the bound %d" % (where, obj["m"], ELEMENT_BOUND))
    _integer_list(obj.get("stab_gens", []), "%s.stab_gens" % where)
    field = AbelianLocalField.from_json(obj)
    if p is not None and field.p != p:
        raise InputError(
            "%s: field lives over p=%d, not p=%d" % (where, field.p, p)
        )
    return field


def base_field(value, p):
    """Resolve a --base value: the literal "qp" or a path to a field JSON."""
    if value is None or value == "qp":
        from .localfields import AbelianLocalField

        return AbelianLocalField.qp(p)
    return field_from_json(load_json(value), p=p, where=value)


def _coefficient(v, where):
    if isinstance(v, bool):
        raise InputError("%s: coefficients must be integers or 'n/d' strings" % where)
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise InputError("%s: cannot parse coefficient %r" % (where, v))
    raise InputError("%s: coefficients must be integers or 'n/d' strings" % where)


def presentation_from_json(obj, group, where="matrix"):
    """{"a": rows, "b": cols, "entries": [[entry, ...], ...]} with each entry
    a length-|G| coefficient vector over the group's element indices."""
    from .fitting import PresentationMatrix

    a = _integer(_require(obj, "a", where), "%s.a" % where)
    b = _integer(_require(obj, "b", where), "%s.b" % where)
    entries = _require(obj, "entries", where)
    if a < 0 or b < 0:
        raise InputError("%s: a and b must be nonnegative integers" % where)
    if not isinstance(entries, list) or len(entries) != a:
        raise InputError("%s: entries must be a list of %d rows" % (where, a))
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != b:
            raise InputError("%s: row %d must have %d entries" % (where, i, b))
        out_row = []
        for j, entry in enumerate(row):
            spot = "%s[%d][%d]" % (where, i, j)
            if not isinstance(entry, list) or len(entry) != group.order:
                raise InputError(
                    "%s: expected a %d-coefficient vector" % (spot, group.order)
                )
            out_row.append([_coefficient(v, spot) for v in entry])
        rows.append(out_row)
    return PresentationMatrix(group, a, b, rows)
