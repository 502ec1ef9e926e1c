"""An interactive AMOSQL shell.

Run with ``python -m repro`` — statements end with ``;`` and may span
lines.  Dot-commands control the session:

.. code-block:: text

    amosql> create type item;
    amosql> create function quantity(item) -> integer;
    amosql> create item instances :i1;
    amosql> set quantity(:i1) = 5;
    amosql> select i, quantity(i) for each item i;
    (#[item 1], 5)
    amosql> .explain          -- show the last check-phase report
    amosql> .network          -- dump the propagation network as dot
    amosql> .help / .quit

The shell registers a default ``print_(...)`` procedure of every arity
up to 4, so rules can be demonstrated without Python glue.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.amosql.interpreter import AmosqlEngine, register_print_procedures
from repro.errors import ReproError

__all__ = ["Repl", "main"]

_BANNER = """repro — partial differencing for rule condition monitoring (ICDE'96)
AMOSQL shell; statements end with ';'.  .help for commands, .quit to exit."""

_HELP = """dot-commands:
  .help              this message
  .quit / .exit      leave the shell
  .mode              show the monitoring mode
  .rules             list rules and their activation state
  .relations         list base relations with row counts
  .network           print the propagation network (GraphViz dot)
  .explain           print the last check-phase report
  .plan select ...   show the compiled, optimized ObjectLog plan
  .save <path>       dump all stored data (extents + functions) to JSON
  .load <path>       restore data saved by .save into this schema
statements: any AMOSQL statement, terminated by ';' (may span lines)."""


class Repl:
    """Line-based AMOSQL read-eval-print loop."""

    def __init__(
        self,
        engine: Optional[AmosqlEngine] = None,
        mode: str = "incremental",
        out=None,
    ) -> None:
        self.engine = engine or AmosqlEngine(mode=mode, explain=True)
        self.out = out or sys.stdout
        self._buffer: List[str] = []
        register_print_procedures(self.engine.amos, self.out)

    # -- command handling --------------------------------------------------------

    def handle_line(self, line: str) -> bool:
        """Process one input line; returns False when the session ends."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("."):
            return self._dot_command(stripped)
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement_text = "\n".join(self._buffer)
            self._buffer = []
            self._run(statement_text)
        return True

    @property
    def pending(self) -> bool:
        """True while a multi-line statement is being collected."""
        return bool(self._buffer)

    def _run(self, text: str) -> None:
        try:
            results = self.engine.execute(text)
        except ReproError as exc:
            print(f"error: {exc}", file=self.out)
            return
        for result in results:
            if isinstance(result, list):
                if not result:
                    print("(no rows)", file=self.out)
                for row in result:
                    print(repr(row), file=self.out)

    def _dot_command(self, command: str) -> bool:
        name = command.split()[0].lower()
        if name in (".quit", ".exit"):
            return False
        if name == ".help":
            print(_HELP, file=self.out)
        elif name == ".mode":
            rules = self.engine.amos.rules
            print(
                f"monitoring={rules.mode} processing={rules.processing}",
                file=self.out,
            )
        elif name == ".rules":
            manager = self.engine.amos.rules
            active = dict(
                (rule_name, params)
                for rule_name, params in manager.active_rules()
            )
            for rule_name in sorted(manager._rules):
                marker = "active" if rule_name in active else "inactive"
                print(f"  {rule_name}: {marker}", file=self.out)
            if not manager._rules:
                print("  (no rules)", file=self.out)
        elif name == ".relations":
            storage = self.engine.amos.storage
            for rel_name in storage.relation_names():
                relation = storage.relation(rel_name)
                monitored = "*" if storage.is_monitored(rel_name) else " "
                print(f" {monitored} {rel_name}: {len(relation)} rows", file=self.out)
        elif name == ".network":
            engine = self.engine.amos.rules.engine
            network = getattr(engine, "network", None)
            if network is None or not network.nodes:
                print("(no propagation network; incremental mode + an "
                      "activated rule required)", file=self.out)
            else:
                print(network.to_dot(), file=self.out)
        elif name == ".plan":
            query_text = command[len(".plan"):].strip().rstrip(";")
            if not query_text:
                print("usage: .plan select ...", file=self.out)
            else:
                try:
                    print(self.engine.explain_query(query_text), file=self.out)
                except ReproError as exc:
                    print(f"error: {exc}", file=self.out)
        elif name == ".save":
            path = command[len(".save"):].strip()
            if not path:
                print("usage: .save <path>", file=self.out)
            else:
                try:
                    self.engine.amos.save_data(path)
                    print(f"saved data to {path}", file=self.out)
                except (ReproError, OSError) as exc:
                    print(f"error: {exc}", file=self.out)
        elif name == ".load":
            path = command[len(".load"):].strip()
            if not path:
                print("usage: .load <path>", file=self.out)
            else:
                try:
                    rows = self.engine.amos.load_data(path)
                    print(f"loaded {rows} rows from {path}", file=self.out)
                except (ReproError, OSError, ValueError) as exc:
                    print(f"error: {exc}", file=self.out)
        elif name == ".explain":
            report = self.engine.amos.rules.last_report
            if report is None:
                print("(no check phase recorded yet)", file=self.out)
            else:
                print(report.summary() or "(empty check phase)", file=self.out)
        else:
            print(f"unknown command {command!r}; try .help", file=self.out)
        return True

    def run(self, input_stream=None) -> None:
        """Interactive loop over an input stream (default: stdin)."""
        stream = input_stream or sys.stdin
        interactive = stream is sys.stdin and sys.stdin.isatty()
        print(_BANNER, file=self.out)
        while True:
            if interactive:
                prompt = "......> " if self.pending else "amosql> "
                self.out.write(prompt)
                self.out.flush()
            line = stream.readline()
            if not line:
                break
            if not self.handle_line(line):
                break


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AMOSQL interactive shell / network server",
    )
    parser.add_argument(
        "--mode",
        choices=["incremental", "naive"],
        default="incremental",
        help="rule condition monitoring strategy",
    )
    parser.add_argument(
        "--serve",
        metavar="HOST:PORT",
        help="run the AMOSQL network server instead of the shell "
        "(a script argument is executed against the served database "
        "before accepting connections)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="server only: reap sessions idle for this many seconds",
    )
    parser.add_argument(
        "--wal-dir",
        metavar="DIR",
        default=None,
        help="server only: durable write-ahead delta-log directory; "
        "existing committed records are recovered before the server "
        "accepts connections (see docs/DURABILITY.md)",
    )
    parser.add_argument(
        "--replicate-from",
        metavar="HOST:PORT",
        default=None,
        help="with --serve: run as a read replica of the primary at "
        "HOST:PORT instead of a writable server; --wal-dir becomes the "
        "replica's own durable copy of the stream and the script "
        "argument must be the primary's bootstrap script "
        "(see docs/REPLICATION.md)",
    )
    parser.add_argument(
        "--switch-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="server only: thread switch interval "
        "(sys.setswitchinterval) for this process; coarser slices "
        "favour check-phase throughput over read latency under load",
    )
    parser.add_argument(
        "script",
        nargs="?",
        help="AMOSQL script to execute instead of the interactive loop",
    )
    options = parser.parse_args(argv)
    if options.switch_interval is not None:
        sys.setswitchinterval(options.switch_interval)
    if options.serve:
        from repro.server.server import parse_hostport, serve

        host, port = parse_hostport(options.serve)
        script_text = None
        if options.script:
            with open(options.script) as handle:
                script_text = handle.read()
        if options.replicate_from:
            from repro.replication.replica import serve_replica

            return serve_replica(
                host,
                port,
                primary=options.replicate_from,
                mode=options.mode,
                script=script_text,
                idle_timeout=options.idle_timeout,
                wal_dir=options.wal_dir,
            )
        return serve(
            host,
            port,
            mode=options.mode,
            script=script_text,
            idle_timeout=options.idle_timeout,
            wal_dir=options.wal_dir,
        )
    repl = Repl(mode=options.mode)
    if options.script:
        with open(options.script) as handle:
            repl._run(handle.read())
        return 0
    repl.run()
    return 0
