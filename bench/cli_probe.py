"""Times one qordsearch CLI command from inside a fresh interpreter.

    python3 bench/cli_probe.py <qordsearch arguments...>

The command's stdout passes through unchanged and the exit code is the
command's. The last stderr line is JSON: ``import_s`` (importing
``qordsearch.cli``, numpy and click included) and ``command_s`` (running the
command, output included).
"""
import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    from qordsearch import cli

    imported = time.perf_counter()
    code = cli.main(args=sys.argv[1:], prog_name="qordsearch", standalone_mode=False)
    sys.stdout.flush()
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "command_s": done - imported}),
          file=sys.stderr)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
