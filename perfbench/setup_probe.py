"""Set-up cost in a fresh interpreter; prints one JSON object.

Usage: python3 setup_probe.py SRC_DIR SCENARIO

Imports the tfkeyrate modules one by one in dependency order, timing each
increment, then loads SCENARIO through the CLI's validator.  setup_s is the
whole span: what a user pays before the first request can start.
"""

import importlib
import json
import sys
import time

MODULES = (
    "finite_stats",
    "channel_model",
    "keyrate_engine",
    "event_simulator",
    "diagnostics",
    "planner",
    "cli",
)


def main() -> None:
    src, scenario = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = previous = time.perf_counter()
    import_s = {}
    for name in MODULES:
        importlib.import_module(f"tfkeyrate.{name}")
        now = time.perf_counter()
        import_s[name] = now - previous
        previous = now
    sys.modules["tfkeyrate.cli"].load_scenario(scenario)
    setup_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))


if __name__ == "__main__":
    main()
