"""The JSON schema of each kind of input file, and the one check that applies it.

A schema is `str` or `int` (matched by `type`, so a bool is no integer), `[S]`,
`{str: S}` (under any keys), a record `{"field": S, ...}` (`Opt` fields may be
left out; other keys are ignored), or `OneOf(tag, records)`, the record named
by the `tag` field.  A mismatch is named by its path from the file's root, as in
``malformed model file: category.objects[0] must be a JSON string, got None``.
"""

from collections import namedtuple

NOUNS = {str: "a JSON string", int: "an integer", list: "a JSON array", dict: "a JSON object"}
Opt, OneOf = namedtuple("Opt", "schema"), namedtuple("OneOf", "tag records")

CATEGORY = {"objects": [str], "morphisms": Opt([{"id": str, "src": str, "dst": str}]),
            "compose": Opt([{"g": str, "f": str, "gf": str}]), "identity": Opt({str: str}),
            "name": Opt(str)}
MODEL = {"category": CATEGORY, "cof": [str], "we": [str], "fib": [str], "name": Opt(str)}
MONAD = {"category": CATEGORY, "T_obj": {str: str}, "T_mor": {str: str}, "unit": {str: str},
         "mult": {str: str}, "name": Opt(str)}
ZN = {"n": int, "name": Opt(str)}
RING_SPEC = OneOf("kind", {"zn": ZN, "polyquo": {"base": OneOf("kind", {"zn": ZN}),
                                                 "poly": [int], "name": Opt(str)},
                           "tables": {"elements": [str], "zero": str, "one": str,
                                      "add": [[str]], "mul": [[str]], "name": Opt(str)}})
RING_SPEC.records["product"] = {"factors": [RING_SPEC], "name": Opt(str)}
TRUNCATED = OneOf("kind", {"truncated-abelian": {"p": int, "bound": int}})


class _Mismatch(Exception):
    """args: what is wrong, and the path to it, innermost step first."""


def check(schema, value, kind: str, error: type[Exception]):
    """`value`, if it matches `schema`; else `error` naming the first mismatch."""
    try:
        _walk(schema, value)
    except _Mismatch as exc:
        path = "".join(reversed(exc.args[1])).lstrip(".") or "the file"
        raise error(f"malformed {kind}: {path} {exc.args[0]}") from None
    except RecursionError:   # a frame per level of nesting, as json.load spends
        raise error(f"malformed {kind}: nested too deeply to check") from None
    return value


def check_ring_map(value, error: type[Exception]) -> dict:
    """A ring map, bare or under "map" when that is an object ("map" may be an element)."""
    if type(value) is dict and type(value.get("map")) is dict:
        return check({"map": {str: str}}, value, "ring map", error)["map"]
    return check({str: str}, value, "ring map", error)


def _walk(schema, value, key=None, step: str = "") -> None:
    """Check `value`, adding `step` (such as "[{}]") for its `key` to the path of a
    mismatch.  Callers skip an entry whose type is its schema: a well-typed leaf."""
    try:
        if type(schema) is OneOf:
            _walk({schema.tag: str}, value)
            if value[schema.tag] not in schema.records:
                raise _Mismatch(f"must be {' or '.join(map(repr, sorted(schema.records)))}, "
                                f"got {value[schema.tag]!r}", ["." + schema.tag])
            schema = schema.records[value[schema.tag]]
        want = schema if schema is str or schema is int else type(schema)
        if type(value) is not want or want is dict and str in schema and \
                any(type(k) is not str for k in value):   # never so when parsed from JSON
            raise _Mismatch(f"must be {NOUNS[want]}, got {value!r}", [])
        if want is list or want is dict and str in schema:
            item, at = (schema[0], "[{}]") if want is list else (schema[str], "[{!r}]")
            for k, entry in enumerate(value) if want is list else value.items():
                if type(entry) is not item:
                    _walk(item, entry, k, at)
        elif want is dict:
            for k, field in schema.items():
                if k in value:
                    field = field.schema if type(field) is Opt else field
                    if type(value[k]) is not field:
                        _walk(field, value[k], k, ".{}")
                elif type(field) is not Opt:
                    raise _Mismatch("is missing", ["." + k])
    except _Mismatch as exc:
        if step:
            exc.args[1].append(step.format(key))
        raise
