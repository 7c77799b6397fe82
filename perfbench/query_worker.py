"""Answer game positions through the public API, timing each query.

Usage: python3 query_worker.py POSITIONS ANSWERS

POSITIONS holds one ``x y`` pair per line.  Each query runs
``GameState.of``, then ``is_losing``, then ``best_move`` if the position
is winning; only those calls are inside the timed region.  ANSWERS gets
one line per query: the query's time in nanoseconds, then ``L`` for a
losing verdict, ``W <kind> <amount>`` for a winning move, or ``E <error>``.
The ``wythoff`` package is found through PYTHONPATH.
"""

import sys
from time import perf_counter_ns

from wythoff.game import GameState, best_move, is_losing


def main(positions_path: str, answers_path: str) -> None:
    with open(positions_path) as handle:
        positions = [tuple(map(int, line.split())) for line in handle]
    times = []
    results = []
    for x, y in positions:
        start = perf_counter_ns()
        try:
            state = GameState.of(x, y)
            result = None if is_losing(state) else best_move(state)
        except Exception as exc:  # a failed query is reported, not fatal
            result = exc
        times.append(perf_counter_ns() - start)
        results.append(result)
    with open(answers_path, "w") as out:
        for ns, result in zip(times, results):
            if result is None:
                out.write(f"{ns} L\n")
            elif isinstance(result, Exception):
                out.write(f"{ns} E {type(result).__name__}\n")
            else:
                out.write(f"{ns} W {result.kind.value} {result.amount}\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
