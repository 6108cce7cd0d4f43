"""Property/fuzz tests for the RESP codec and the replicated dicts."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import resp
from repro.flacdk.arena import Arena
from repro.flacdk.structures import DelegatedDict, ReplicatedDict
from repro.flacdk.sync import OperationLog
from repro.rack import RackConfig, RackMachine

# RESP values a server can legally emit
_reply_values = st.recursive(
    st.one_of(
        st.none(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.binary(max_size=200),
        st.text(alphabet=st.characters(blacklist_characters="\r\n", codec="ascii"), max_size=50),
    ),
    lambda children: st.lists(children, max_size=5),
    max_leaves=15,
)


@settings(max_examples=150, deadline=None)
@given(value=_reply_values)
def test_any_reply_round_trips(value):
    decoded, rest = resp.decode(resp.encode_reply(value))
    assert rest == b""
    assert decoded == value


@settings(max_examples=150, deadline=None)
@given(parts=st.lists(st.binary(max_size=100), min_size=1, max_size=8))
def test_any_command_round_trips(parts):
    assert resp.decode_commands(resp.encode_command(*parts)) == [parts]


#: Inputs random bytes never reach, each of which the by-slice decoder either
#: accepted silently or let out as a bare ValueError / UnicodeDecodeError.
_MALFORMED = [
    b"$-5\r\nhello world\r\n",  # negative length other than -1
    b"$3\r\nabcXY",  # bulk string without its CRLF terminator
    b"*x\r\n",  # non-integer count
    b":abc\r\n",  # non-integer integer
    b"+\xff\r\n",  # undecodable simple string
    b"-\xff\r\n",  # undecodable error string
]


@settings(max_examples=200, deadline=None)
@given(garbage=st.binary(min_size=1, max_size=120))
@example(garbage=_MALFORMED[0])
@example(garbage=_MALFORMED[1])
@example(garbage=_MALFORMED[2])
@example(garbage=_MALFORMED[3])
@example(garbage=_MALFORMED[4])
@example(garbage=_MALFORMED[5])
def test_garbage_never_escapes_resp_error(garbage):
    """Malformed input raises RespError (or decodes cleanly if it happens
    to be valid) — never IndexError/ValueError/UnicodeDecodeError."""
    try:
        resp.decode(garbage)
    except resp.RespError:
        pass
    except (ValueError, IndexError, UnicodeDecodeError) as exc:  # pragma: no cover
        pytest.fail(f"raw {type(exc).__name__} escaped the decoder: {exc}")


@settings(max_examples=200, deadline=None)
@given(value=_reply_values, cut=st.integers(min_value=0, max_value=50))
def test_truncated_replies_raise_cleanly(value, cut):
    encoded = resp.encode_reply(value)
    truncated = encoded[: max(0, len(encoded) - 1 - cut)]
    if not truncated:
        with pytest.raises(resp.RespError):
            resp.decode(truncated)
        return
    try:
        resp.decode(truncated)  # a prefix can itself be a valid value
    except resp.RespError:
        pass


@pytest.mark.parametrize("frame", _MALFORMED + [b"$x\r\nabc\r\n", b"$3\r\nabc\r", b"*2\r\n:1\r\n"])
def test_malformed_input_is_refused_not_reinterpreted(frame):
    """Typed and loud — also as one value of a pipelined frame."""
    for decode in (resp.decode, resp.decode_replies, resp.decode_commands):
        with pytest.raises(resp.RespError):
            decode(frame)
    with pytest.raises(resp.RespError):
        resp.decode_replies(b"+OK\r\n" + frame)


_commands = st.lists(st.lists(st.binary(max_size=60), min_size=1, max_size=5), max_size=8)


@settings(max_examples=80, deadline=None)
@given(commands=_commands)
def test_pipelined_commands_round_trip(commands):
    """Empty bulk strings and payloads holding CRLF included."""
    assert resp.decode_commands(resp.encode_commands(commands)) == commands


@settings(max_examples=60, deadline=None)
@given(replies=st.lists(_reply_values, max_size=8))
def test_concatenated_replies_round_trip(replies):
    frame = b"".join(map(resp.encode_reply, replies))
    assert resp.decode_replies(frame) == replies


def _plain(value):
    """RedisError has no equality: compare it by type and message."""
    if isinstance(value, resp.RedisError):
        return ("E", str(value))
    return [_plain(v) for v in value] if isinstance(value, list) else value


def E(message):
    return ("E", message)


#: Pipelined frames and what the by-slice decoder (commit 38f08da) made of them.
_RECORDED_FRAMES = [
    (b'*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$4\r\nv\r\nv\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n*1\r\n$4\r\nPING\r\n',
     [[b'SET', b'k', b'v\r\nv'], [b'GET', b'k'], [b'PING']]),
    (b"+OK\r\n$4\r\nv\r\nv\r\n$-1\r\n:42\r\n-ERR unknown command 'FOO'\r\n-WRONGTYPE bad\r\n",
     ['OK', b'v\r\nv', None, 42, E("unknown command 'FOO'"), E('WRONGTYPE bad')]),
    (b'*2\r\n*2\r\n:1\r\n$0\r\n\r\n*0\r\n+PONG\r\n',
     [[[1, b''], []], 'PONG']),
    (b'*-1\r\n$0\r\n\r\n:-7\r\n',
     [[], b'', -7]),
    (b'*3\r\n$-1\r\n$2\r\n\r\n\r\n:0\r\n+\r\n',
     [[None, b'\r\n', 0], '']),
    (b'$4\r\n\x00\xff\r\n\r\n*1\r\n$3\r\n\xe2\x82\xac\r\n',
     [b'\x00\xff\r\n', [b'\xe2\x82\xac']]),
]


@pytest.mark.parametrize("frame, expected", _RECORDED_FRAMES)
def test_by_offset_decoder_reads_recorded_frames_as_before(frame, expected):
    assert _plain(resp.decode_replies(frame)) == expected
    first, rest = resp.decode(frame + b"+tail\r\n")
    assert _plain(first) == expected[0]
    assert _plain(resp.decode_replies(rest)) == expected[1:] + ["tail"]


_dict_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "del"]),
        st.binary(min_size=1, max_size=12),
        st.binary(max_size=24),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=30,
)


@settings(max_examples=25, deadline=None)
@given(ops=_dict_ops)
def test_replicated_dict_matches_model_across_nodes(ops):
    machine = RackMachine(RackConfig(n_nodes=4, topology="single_switch", global_mem_size=1 << 24))
    ctxs = [machine.context(i) for i in range(4)]
    arena = Arena(machine.global_base, machine.global_size)
    log = OperationLog(arena.take(OperationLog.region_size(64)), 64).format(ctxs[0])
    rd = ReplicatedDict(log)
    model = {}
    for verb, key, value, node in ops:
        ctx = ctxs[node]
        if verb == "put":
            rd.put(ctx, key, value)
            model[key] = value
        elif verb == "get":
            assert rd.get(ctx, key) == model.get(key)
        else:
            assert rd.delete(ctx, key) == (key in model)
            model.pop(key, None)
    for key, value in model.items():
        for ctx in ctxs:
            assert rd.get(ctx, key) == value


@settings(max_examples=20, deadline=None)
@given(ops=_dict_ops)
def test_delegated_dict_matches_model_across_nodes(ops):
    machine = RackMachine(RackConfig(n_nodes=4, topology="single_switch", global_mem_size=1 << 24))
    ctxs = [machine.context(i) for i in range(4)]
    arena = Arena(machine.global_base, machine.global_size)
    dd = DelegatedDict(
        arena.take(DelegatedDict.region_size(2, 4)), owners=[0, 2], n_nodes=4
    ).format(ctxs[0])
    model = {}
    for verb, key, value, node in ops:
        ctx = ctxs[node]
        owner_ctx = ctxs[dd.owners[dd.partition_of(key)]]
        if verb == "put":
            dd.put(ctx, owner_ctx, key, value)
            model[key] = value
        elif verb == "get":
            assert dd.get(ctx, owner_ctx, key) == model.get(key)
        else:
            assert dd.delete(ctx, owner_ctx, key) == (key in model)
            model.pop(key, None)
    for key, value in model.items():
        owner_ctx = ctxs[dd.owners[dd.partition_of(key)]]
        assert dd.get(ctxs[1], owner_ctx, key) == value
