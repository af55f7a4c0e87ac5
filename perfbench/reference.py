"""A fixed program that uses only the standard library: the yardstick run.py
times next to the CLI calls to follow the host's speed.

It does the kinds of work the CLI does (interpreter start-up, exact rational
sums, 64-bit integer arithmetic and bit counts, dictionaries, sorting and
string building) and none of the package's code, so no change to turanweights
can change its time.  Changing this file changes every figure the benchmark
reports; compare only runs made with the same copy of it.
"""

from fractions import Fraction

MASK64 = (1 << 64) - 1


def main() -> str:
    x = 1
    text = ""
    for _ in range(50):
        total = Fraction(0)
        for k in range(1, 300):
            total += Fraction(k % 13 + 1, k * k + 1)
        counts: dict[int, int] = {}
        for _ in range(3000):
            x = (x * 6364136223846793005 + 1442695040888963407) & MASK64
            counts[x & 1023] = counts.get(x & 1023, 0) + x.bit_count()
        text = ",".join(f"{k}:{v}" for k, v in sorted(counts.items(), key=lambda kv: kv[1]))
    return f"{total.denominator.bit_length()} {len(text)}"


if __name__ == "__main__":
    print(main())
