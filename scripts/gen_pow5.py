#!/usr/bin/env python3
"""Write lib/numerics/pow5_table.ml: the 128-bit powers of five that
Numerics.Decimal's Eisel-Lemire path multiplies by.

    python3 scripts/gen_pow5.py > lib/numerics/pow5_table.ml

Entry q, for q in [-342, 308], is 5^q scaled by a power of two into
[2^127, 2^128): truncated for q >= 0, and rounded up from a 2z+128-bit
(or z+127-bit for q >= -27) reciprocal for q < 0, where 2^z is the
least power of two at or above 5^-q.  This is the table of Lemire,
"Number Parsing at a Gigabyte per Second" (2021), generated the same way.

The table is one OCaml string literal of 16 bytes an entry (the high
then the low 64 bits, each little-endian), so it is static data in the
binary: nothing is built when the program starts.
"""

SMALLEST = -342
LARGEST = 308


def entry(q):
    if q >= 0:
        p = 5 ** q
        while p < (1 << 127):
            p *= 2
        while p >= (1 << 128):
            p //= 2
        return p
    p = 5 ** -q
    z = 0
    while (1 << z) < p:
        z += 1
    if q >= -27:
        return (1 << (z + 127)) // p + 1
    c = (1 << (2 * z + 128)) // p + 1
    while c >= (1 << 128):
        c //= 2
    return c


def main():
    data = bytearray()
    for q in range(SMALLEST, LARGEST + 1):
        c = entry(q)
        assert (1 << 127) <= c < (1 << 128)
        data += (c >> 64).to_bytes(8, "little")
        data += (c & ((1 << 64) - 1)).to_bytes(8, "little")
    print("(* Generated by scripts/gen_pow5.py; do not edit. *)")
    print()
    print("(* 5^q scaled into [2^127, 2^128) for q in [%d, %d]: entry q is" % (SMALLEST, LARGEST))
    print("   the 16 bytes at 16 * (q - smallest), high 64 bits first, each")
    print("   little-endian. *)")
    print()
    print("let smallest = %d" % SMALLEST)
    print("let largest = %d" % LARGEST)
    print()
    print("let table =")
    per_line = 16
    for k in range(0, len(data), per_line):
        chunk = "".join("\\x%02x" % b for b in data[k:k + per_line])
        first = k == 0
        last = k + per_line >= len(data)
        print("  %s%s%s" % ('"' if first else " ", chunk, '"' if last else "\\"))


if __name__ == "__main__":
    main()
