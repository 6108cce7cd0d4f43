"""RESP (REdis Serialization Protocol) encode/decode.

MiniRedis speaks real RESP2 so the transport carries exactly the bytes
a Redis deployment would: commands as arrays of bulk strings, replies
as simple strings, errors, integers, bulk strings, or arrays.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Sequence, Tuple

CRLF = b"\r\n"
#: the type byte that opens each kind of value
_SIMPLE, _ERROR, _INTEGER, _BULK, _ARRAY = b"+-:$*"


class RespError(Exception):
    """Protocol-level parse failure."""


class RedisError(Exception):
    """An ``-ERR ...`` reply, surfaced client-side."""


def encode_command(*parts: bytes) -> bytes:
    """Encode a command as an array of bulk strings."""
    out = [b"*%d" % len(parts), CRLF]
    for part in parts:
        out += [b"$%d" % len(part), CRLF, part, CRLF]
    return b"".join(out)


def encode_reply(value: Any) -> bytes:
    """Encode a server reply.

    ``None`` -> null bulk, int -> integer, bytes -> bulk string,
    str -> simple string, Exception -> error, list -> array.
    """
    if value is None:
        return b"$-1" + CRLF
    if isinstance(value, bool):
        return b":%d" % int(value) + CRLF
    if isinstance(value, int):
        return b":%d" % value + CRLF
    if isinstance(value, bytes):
        return b"$%d" % len(value) + CRLF + value + CRLF
    if isinstance(value, str):
        return b"+" + value.encode() + CRLF
    if isinstance(value, Exception):
        return b"-ERR " + str(value).encode() + CRLF
    if isinstance(value, (list, tuple)):
        return b"*%d" % len(value) + CRLF + b"".join(encode_reply(v) for v in value)
    raise RespError(f"cannot encode {type(value).__name__}")


def decode(data: bytes) -> Tuple[Any, bytes]:
    """Decode one RESP value; returns (value, remaining bytes)."""
    value, pos = _decode_at(data, 0)
    return value, data[pos:]


def _decode_at(data: bytes, pos: int) -> Tuple[Any, int]:
    """Decode the value starting at ``data[pos]``; returns (value, offset
    of the next one).  Walks the one buffer: only values are sliced out."""
    try:
        kind = data[pos]
    except IndexError:
        raise RespError("empty buffer") from None
    idx = data.find(CRLF, pos + 1)
    if idx < 0:
        raise RespError("missing CRLF")
    after = idx + 2
    if kind == _BULK or kind == _ARRAY or kind == _INTEGER:
        try:
            number = int(data[pos + 1 : idx])
        except ValueError:
            raise RespError(f"not an integer: {data[pos + 1 : idx]!r}") from None
        if kind == _BULK:
            if number < 0:
                if number == -1:
                    return None, after
                raise RespError(f"negative bulk string length {number}")
            end = after + number
            if data[end : end + 2] != CRLF:
                if len(data) < end + 2:
                    raise RespError("truncated bulk string")
                raise RespError("bulk string not terminated by CRLF")
            return data[after:end], end + 2
        if kind == _INTEGER:
            return number, after
        items: List[Any] = []
        for _ in range(number):
            item, after = _decode_at(data, after)
            items.append(item)
        return items, after
    if kind == _SIMPLE or kind == _ERROR:
        try:
            text = data[pos + 1 : idx].decode()
        except UnicodeDecodeError:
            raise RespError(f"simple string is not UTF-8: {data[pos + 1 : idx]!r}") from None
        if kind == _SIMPLE:
            return text, after
        return RedisError(text[4:] if text.startswith("ERR ") else text), after
    raise RespError(f"unknown RESP type {data[pos : pos + 1]!r}")


def _command(value: Any) -> List[bytes]:
    if not isinstance(value, list) or not all(isinstance(v, bytes) for v in value):
        raise RespError("commands must be arrays of bulk strings")
    return value


def encode_commands(commands: Iterable[Sequence[bytes]]) -> bytes:
    """Pack many commands into one pipelined frame (RESP concatenation)."""
    return b"".join(encode_command(*command) for command in commands)


def decode_commands(data: bytes) -> List[List[bytes]]:
    """Decode every command in a pipelined frame, in order (an unbatched
    client's frame holds one)."""
    return [_command(value) for value in _values(data)]


def decode_replies(data: bytes) -> List[Any]:
    """Decode every reply in a frame (the server batches one frame per
    request frame, so replies arrive concatenated)."""
    return list(_values(data))


def _values(data: bytes) -> Iterator[Any]:
    """Every value of a frame, decoded one at a time as it is asked for."""
    pos, end = 0, len(data)
    while pos < end:
        value, pos = _decode_at(data, pos)
        yield value
