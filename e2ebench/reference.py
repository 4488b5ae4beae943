"""In-process reference answers for served requests.

Usage::

    python3 e2ebench/reference.py REQUESTS.json ANSWERS.json

Runs each distinct request through ``QueryEngine(fork_policy="never")``
— the engine behind ``repro-eba query --local`` — and writes the
canonical answer digest of each (``common.canonical_answer``), or the
error, in request order.  The serve-mix workload compares these with
what the daemon sent back.
"""

from __future__ import annotations

import json
import sys

from common import canonical_answer


def main(argv) -> int:
    requests_path, answers_path = argv
    with open(requests_path) as handle:
        requests = json.load(handle)
    from repro.serve.session import QueryEngine

    engine = QueryEngine(fork_policy="never")
    answers = []
    try:
        for request in requests:
            try:
                result = engine.execute(request["op"], request["params"],
                                        emit=lambda _event: None)
            except Exception as error:  # noqa: BLE001 - reported per request
                answers.append({"error": f"{type(error).__name__}: {error}"})
                continue
            answers.append(
                {"answer": canonical_answer(request["op"], result)}
            )
    finally:
        engine.close()
    with open(answers_path, "w") as handle:
        json.dump(answers, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
