"""Time importing modcomplete and loading a workload's three inputs.

Usage: setup_probe.py MODEL.json REQS.feature KB.txt

Prints the seconds from before ``import modcomplete`` to after
``load_model``, ``parse_corpus`` and ``parse_kb`` have returned. It runs in a
fresh process each time, so the import is never cached.
"""

import sys
from time import perf_counter

start = perf_counter()
import modcomplete  # noqa: E402


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


model_path, reqs_path, kb_path = sys.argv[1:4]
modcomplete.load_model(read(model_path))
modcomplete.parse_corpus(read(reqs_path))
modcomplete.parse_kb(read(kb_path))
print(perf_counter() - start)
