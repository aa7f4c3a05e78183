"""The reference load that gauges the machine's speed during a run.

    python3 perfbench/reference.py

Runs a fixed pure-Python loop of the kind the CLI runs (small integer matrix
products through lists, tuples and a dict) and exits.  The benchmark times it
as a fresh process, like a CLI operation, interpreter start included.
Standard library only; it must never change, or times measured before and
after the change stop being comparable.
"""


def reference_work() -> int:
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(20)] for i in range(20)]
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for _ in range(192):
        for i, row in enumerate(rows):
            for col in rows:
                v = sum(a * b for a, b in zip(row, col))
                acc += v
                seen[(i, v % 13)] = seen.get((i, v % 13), 0) + 1
        rows = [row[1:] + row[:1] for row in rows]
    return acc + len(seen)


if __name__ == "__main__":
    reference_work()
