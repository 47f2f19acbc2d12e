"""Start ``repro-xml serve`` with the benchmark's timers around each layer.

    python3 perfbench/launcher.py --spans OUT.json [--obs] -- serve ARGS...

Wraps exactly the public entry points the traced benchmark reports on
(see :func:`install`), runs the CLI in this process, and writes the
recorded spans to ``OUT.json`` once the server has drained. ``--obs``
also turns on the program's own tracer (``serve --trace``), for the pass
that compares the two. The untraced benchmark runs the plain CLI and
installs none of this.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder  # noqa: E402


def _request_id(message) -> "str | None":
    return message.get("id") if isinstance(message, dict) else None


def _length(result, args, kwargs) -> dict:
    return {"bytes": len(result)}


def install(recorder: Recorder) -> None:
    """Wrap the server-side entry points of every layer."""
    from repro.editing import EditScript
    from repro.engine import ViewEngine
    from repro.core.propagate import PropagationGraphs
    from repro.registry import EngineRegistry
    from repro.server import app, handlers, protocol
    from repro.session import DocumentSession
    from repro.sharding import ShardedDocument
    from repro.store import DocumentStore
    from repro.store.wal import WalWriter

    wrap, wrap_async = recorder.wrap, recorder.wrap_async

    # repro.server: one span per HANDLERS entry, rooted at the request id
    for op, handler in list(handlers.HANDLERS.items()):
        handlers.HANDLERS[op] = wrap_async(
            handler, "server.handler", request=lambda a, k: _request_id(a[1])
        )
    # the response frame echoes the request id
    protocol.encode_message = wrap(
        protocol.encode_message,
        "protocol.encode",
        attrs=_length,
        request=lambda a, k: _request_id(a[0]),
    )
    read_message = app.read_message

    def decode_attrs(result, args, kwargs):
        header = kwargs["header"]
        return {"bytes": len(header) + int(header.split()[1]) + 1}

    timed_read = wrap_async(
        read_message, "protocol.decode", attrs=decode_attrs, result_request=_request_id
    )

    async def read_after_header(reader, *, header=None):
        # time decoding, not the wait for the client's next request
        if header is None:
            try:
                header = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError:
                return None
            except asyncio.LimitOverrunError:
                return await read_message(reader)
        return await timed_read(reader, header=header)

    app.read_message = read_after_header

    # repro.editing
    parse = EditScript.__dict__["parse"].__func__
    EditScript.parse = classmethod(
        wrap(parse, "editing.parse", attrs=lambda r, a, k: {"bytes": len(a[1])})
    )
    EditScript.to_term = wrap(EditScript.to_term, "editing.to_term")

    # repro.session
    DocumentSession.propagate = wrap(DocumentSession.propagate, "session.propagate")
    DocumentSession.advance_script = wrap(DocumentSession.advance_script, "session.advance")
    DocumentSession.apply_source_script = wrap(
        DocumentSession.apply_source_script, "store.replay_apply"
    )
    journal = DocumentSession.__dict__["journal"]

    def install_journal(session, hook):
        journal.fset(session, wrap(hook, "store.journal") if hook is not None else None)

    DocumentSession.journal = property(journal.fget, install_journal, doc=journal.__doc__)

    # repro.engine / repro.core
    ViewEngine.validate = wrap(ViewEngine.validate, "engine.validate")
    ViewEngine.propagation_graphs = wrap(
        ViewEngine.propagation_graphs,
        "engine.graphs",
        attrs=lambda r, a, k: {"built": len(r)},
    )
    PropagationGraphs.build_script = wrap(PropagationGraphs.build_script, "engine.script")

    # repro.store
    WalWriter.append = wrap(WalWriter.append, "store.wal_append")
    WalWriter.sync = wrap(WalWriter.sync, "store.fsync")
    DocumentStore.open_session = wrap(DocumentStore.open_session, "store.open_session")

    # repro.xmltree, as the view handler calls it
    handlers.tree_to_xml = wrap(handlers.tree_to_xml, "xmltree.to_xml", attrs=_length)

    # repro.sharding
    ShardedDocument.propagate = wrap(ShardedDocument.propagate, "sharding.propagate")

    # repro.registry
    EngineRegistry.get_or_compile = wrap(EngineRegistry.get_or_compile, "registry.compile")


def main(argv: "list[str]") -> int:
    split = argv.index("--")
    options, serve_args = argv[:split], argv[split + 1:]
    spans_out = options[options.index("--spans") + 1]
    if "--obs" in options:
        serve_args = [*serve_args, "--trace", "--trace-sample", "0"]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
