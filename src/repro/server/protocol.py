"""The wire protocol: length-prefixed, CRC-framed JSON messages.

Messages are ``M`` frames of :mod:`repro.framing`, under its stream
rules: an incomplete final message is *not yet received*, and interior
damage raises :class:`~repro.errors.ProtocolError` rather than
resynchronising by guesswork; the connection must be dropped.

Both directions use the same frame; a request is a JSON object with an
``op`` field, a response is ``{"ok": true, "result": …}`` or
``{"ok": false, "error": …}`` where the error payload comes from
:func:`repro.errors.error_payload`.
"""

from __future__ import annotations

import asyncio
import json

from .. import framing
from ..errors import ProtocolError

__all__ = [
    "encode_message",
    "decode_messages",
    "message_buffer",
    "read_message",
    "write_message",
    "MAX_MESSAGE_BYTES",
]

MAX_MESSAGE_BYTES = 64 * 1024 * 1024
"""Refuse to buffer a single message beyond this — a header declaring a
larger body is treated as protocol damage, not as a request."""

_GRAMMAR = framing.Grammar(rb"M()", limit=MAX_MESSAGE_BYTES)

_INTERIOR = {
    framing.HEADER: "malformed message header at byte {at} — the stream is "
    "not a repro serving feed or was corrupted",
    framing.LIMIT: "message header at byte {at} declares {length} bytes, "
    f"beyond the {MAX_MESSAGE_BYTES}-byte frame limit",
    framing.CHECKSUM: "message at byte {at} fails its checksum with further "
    "data after it — interior corruption, dropping the connection",
}


def encode_message(obj: dict) -> bytes:
    """The exact bytes the wire carries for one JSON message."""
    body = json.dumps(obj, sort_keys=True).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(body)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte frame limit"
        )
    return framing.encode(b"M", body)


def _payload(body: bytes, where: str) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"message{where} carries an unreadable payload ({error})") from error
    if not isinstance(payload, dict):
        raise ProtocolError(f"message{where} payload is not an object")
    return payload


def _messages(found: framing.Scan) -> "list[dict]":
    """The scan's messages, decoded; raises :class:`ProtocolError` for
    an unreadable payload or interior damage."""
    messages = [_payload(raw.payload, f" at byte {raw.at}") for raw in found.frames]
    damage = found.damage
    if damage is not None and not damage.torn:
        raise ProtocolError(_INTERIOR[damage.reason].format(at=found.end, **damage._asdict()))
    return messages


def decode_messages(data: bytes) -> "tuple[list[dict], int]":
    """``(messages, consumed)``: the complete messages at the front of
    *data* and the offset just past them; an incomplete final message
    stays unconsumed, a damaged one raises :class:`ProtocolError`."""
    found = framing.scan(data, _GRAMMAR, stream=True)
    return _messages(found), found.end


def message_buffer() -> framing.StreamBuffer:
    """An incremental decoder for one connection's incoming messages:
    ``feed(chunk)`` returns the messages the chunk completed."""
    return framing.StreamBuffer(_GRAMMAR, _messages)


async def read_message(
    reader: "asyncio.StreamReader", *, header: "bytes | None" = None
) -> "dict | None":
    """Read one framed message; ``None`` on a cleanly closed peer.

    A peer that disappears *inside* a message — torn header or torn
    body — is the wire's crash signature and also yields ``None`` (the
    incomplete message was never received); bytes that are present but
    wrong raise :class:`~repro.errors.ProtocolError`. *header* hands in
    a first line the caller already consumed (the server sniffs it to
    tell framed traffic from HTTP on one port).
    """
    if header is None:
        try:
            header = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return None  # clean EOF, or a torn header: peer went away
        except asyncio.LimitOverrunError as error:
            raise ProtocolError(
                "message header exceeds the stream limit"
            ) from error
    fields = _GRAMMAR.parse(header, 0, len(header) - 1)
    if fields is None:
        raise ProtocolError(
            f"malformed message header {header[:64]!r}"
        )
    _, length, crc = fields
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message header declares {length} bytes, beyond the "
            f"{MAX_MESSAGE_BYTES}-byte frame limit"
        )
    try:
        body = framing.check(await reader.readexactly(length + 1), crc)
    except asyncio.IncompleteReadError:
        return None  # torn body: peer died mid-write
    if body is None:
        raise ProtocolError("message fails its checksum")
    return _payload(body, "")


async def write_message(writer: "asyncio.StreamWriter", obj: dict) -> None:
    """Frame *obj* and flush it to the peer."""
    writer.write(encode_message(obj))
    await writer.drain()
