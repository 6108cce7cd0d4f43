"""What a telemetry file may hold: the one check of every file a reader loads.

A spec is plain data.  A :class:`Leaf` tests one value; a dict is an object
with those fields (``"key?"``: a field that may be absent; fields no spec
names are ignored); ``[spec]`` is a list of ``spec``; a tuple is a row, a
list of exactly that many fields; :class:`Map` is an object of any keys
(each a ``key`` leaf); :class:`Nullable` allows ``null``; :class:`Rule`
adds one test across fields; :class:`Document` is a file, an object whose
``schema`` tag names its kind.  :func:`load` checks a file once against
:data:`RUN` or :data:`DUMP`, so the readers behind it index fields
directly: no reader converts, defaults or re-checks a field.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
from collections import namedtuple
from typing import Union

from .registry import N_BUCKETS

RUN_SCHEMA = "repro.telemetry.run/1"
ATLAS_SCHEMA = "repro.telemetry.atlas/3"
FLIGHT_SCHEMA = "repro.telemetry.flightrec/5"

Leaf = namedtuple("Leaf", "test what")
Nullable = namedtuple("Nullable", "spec")
Map = namedtuple("Map", "value key")
Rule = namedtuple("Rule", "spec test what")
Document = namedtuple("Document", "tag name fields")


def _number(v) -> bool:  # NaN fails the comparison, an int too big for a float too
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def at_least(low: int) -> Leaf:
    return Leaf(lambda v: type(v) is int and v >= low, f"an int >= {low}")


def one_of(*values: str, what: str = "") -> Leaf:
    return Leaf(lambda v: isinstance(v, str) and v in values, what or f"one of {values}")


def matches(pattern: str, what: str) -> Leaf:
    return Leaf(lambda v: isinstance(v, str) and re.fullmatch(pattern, v) is not None, what)


NUM = Leaf(_number, "a finite number")
AT = Leaf(lambda v: _number(v) and v >= 0, "a finite number >= 0")
INT = Leaf(lambda v: type(v) is int, "an int")
COUNT = at_least(0)
STR = Leaf(lambda v: isinstance(v, str), "a string")
NAME = Leaf(lambda v: isinstance(v, str) and v != "", "a non-empty string")
NODE_KEY = matches("-?[0-9]+", "a node id")
#: a link between two fabric vertices; a node's is ``node:<id>``
_VERTEX = "(node:-?[0-9]+|(?!node:)[^|]+)"
LINK = matches(rf"{_VERTEX}\|{_VERTEX}", "a link id 'u|v'")

#: a ``[node, subsystem, name, value]`` metrics row
ROW = (INT, NAME, NAME, NUM)
HISTOGRAM = Rule(
    {"count": COUNT, "sum": NUM, "min": Nullable(NUM), "max": Nullable(NUM),
     "buckets": Map(COUNT, matches("|".join(str(i) for i in range(N_BUCKETS)), "a bucket index"))},
    lambda h: (h["count"] == 0) == (h["min"] is None) == (h["max"] is None),
    "must have a min and a max exactly when its count is not 0")
METRICS = {"counters": [ROW], "gauges": [ROW], "histograms": [(INT, NAME, NAME, HISTOGRAM)]}
#: a Chrome ``trace_event`` (JSON Object Format): metadata events are untimed
TRACE_EVENT = Rule(
    {"name": NAME, "ph": one_of(*"XBEMiICbenstf", what="a known phase"), "pid": INT, "tid": INT,
     "ts?": AT, "dur?": AT, "args?": {"span_id?": INT, "parent_id?": Nullable(INT)}},
    lambda ev: ev["ph"] == "M" or "ts" in ev and (ev["ph"] != "X" or "dur" in ev),
    "must carry a ts, and a complete (X) event a dur")
TRACE = {"traceEvents": [TRACE_EVENT]}

_PAGE = {"page": COUNT, "addr": STR, "bytes": NUM, "error": NUM}
ATLAS = Document(ATLAS_SCHEMA, "atlas snapshot", {
    "at_ns": Nullable(NUM),
    "sketch": {"page_k": COUNT, "page_coverage": NUM, "total_bytes": NUM},
    "pages": [_PAGE],
    "queue_delay_ns": Map(NUM, STR),
    "links": [{"link": LINK, "bytes": NUM, "requests": COUNT, "rate_bytes_per_s": NUM,
               "downs": [NUM], "tenants": [{"vni": INT, "tenant": STR, "bytes": NUM}]}],
})
RUN = Document(RUN_SCHEMA, "telemetry run export", {
    "meta": {}, "metrics": METRICS, "trace": Nullable(TRACE), "atlas?": ATLAS})

_SAMPLED = "offered admitted failed timed_out retries hedges hedge_wins failovers shed"
_BREAKER_STATE = one_of("closed", "open", "half-open")
_ALERT_STATE = one_of("firing", "resolved")
DUMP = Document(FLIGHT_SCHEMA, "flight-recorder dump", {
    "reason": STR,
    "at_ns": NUM,
    "windows": [Rule({"index": INT, "start_ns": NUM, "end_ns": NUM, "windows": at_least(1),
                      "counters": [ROW], "gauges": [ROW]},
                     lambda w: w["start_ns"] < w["end_ns"], "must end after it starts")],
    "alerts": [{"alert_id": STR, "objective": STR, "node": INT, "fired_window": INT,
                "fired_ns": NUM, "fast_burn": NUM, "slow_burn": NUM, "state": _ALERT_STATE,
                "resolved_window": Nullable(INT), "resolved_ns": Nullable(NUM),
                "event": _ALERT_STATE}],
    "breakers": [{"tenant": STR, "target": INT, "from": _BREAKER_STATE, "to": _BREAKER_STATE,
                  "t_ns": NUM, "reason": STR}],
    "resilience": [dict(dict.fromkeys(_SAMPLED.split(), COUNT), t_ns=NUM, tenant=STR)],
    "boosts": [{"t_ns": NUM, "cause": STR, "pages": [COUNT]}],
    # a span row: [name, node, start_ns, end_ns, parent_id, args]
    "spans": [(NAME, INT, NUM, NUM, Nullable(INT), {"target?": INT})],
    "fault_tail": Map([{"kind": STR, "time_ns": NUM, "addr": Nullable(COUNT), "detail": STR}],
                      NODE_KEY),
    "atlas_links": [{"link": LINK, "bytes": NUM, "requests": COUNT, "downs": [NUM]}],
    "atlas_pages": [_PAGE],
})


def _at(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def check(value, spec, where: str = "") -> None:
    """``ValueError`` naming the first part of ``value`` (by its path from
    ``where``) that ``spec`` does not allow; ``None`` when all of it does."""
    kind = type(spec)
    if kind is Leaf:
        if not spec.test(value):
            raise ValueError(f"{where} must be {spec.what}, got {value!r:.60}")
    elif kind is Nullable:
        if value is not None:
            check(value, spec.spec, where)
    elif kind is Rule:
        check(value, spec.spec, where)
        if not spec.test(value):
            raise ValueError(f"{where} {spec.what}, got {value!r:.60}")
    elif kind is Document:
        prefix = f"{where}: " if where else ""
        if not isinstance(value, dict):
            raise ValueError(f"{prefix}not a JSON object (a {type(value).__name__})")
        if value.get("schema") != spec.tag:
            raise ValueError(f"{prefix}not a {spec.name} (schema={value.get('schema')!r:.60})")
        check(value, spec.fields, where)
    elif not isinstance(value, dict if kind in (dict, Map) else list) or (
            kind is tuple and len(value) != len(spec)):
        shape = {dict: "an object", Map: "an object", list: "a list"}.get(kind, f"a {len(spec)}-field row")
        raise ValueError(f"{where} must be {shape}, got {value!r:.60}")
    elif kind is dict:
        for key, field in spec.items():
            name = key.rstrip("?")
            if name in value:
                check(value[name], field, _at(where, name))
            elif name == key:
                raise ValueError(f"{_at(where, name)} is missing")
    elif kind is Map:
        for key, item in value.items():
            check(key, spec.key, f"{where} key")
            check(item, spec.value, _at(where, key))
    elif kind is list:
        for i, item in enumerate(value):
            check(item, spec[0], f"{where}[{i}]")
    else:  # a row
        for i, (item, field) in enumerate(zip(value, spec)):
            check(item, field, f"{where}[{i}]")


def load(path: Union[str, pathlib.Path], spec: Document) -> dict:
    """The JSON file at ``path``, once :func:`check` finds all of it in ``spec``."""
    data = json.loads(pathlib.Path(path).read_text())
    check(data, spec)
    return data
