#!/bin/sh
# Report the values that lib/**/*.mli exports but that nothing outside
# their own module and test/ references.  A report, not a gate: it exits 0
# whatever it finds.  Run from the repository root (`make dead-values`).
#
# A value M.v of library L counts as referenced in a file F (any .ml/.mli
# under lib/, bin/, bench/ or examples/ other than M's own two files) when
# F contains one of:
#   - a path ending in M.v (L.M.v, M.v, or Sub.v for a value of M's
#     submodule Sub, however it is qualified);
#   - A.v, where F aliases M with `module A = <path ending in M>`;
#   - L.v or A.v where A aliases L, when L's main module re-exports M with
#     `include M` (dist.ml includes Base);
#   - a bare v, when F opens M (`open`, `let open`, `M.( ... )` or
#     `include`).
# The match is textual, so it can miss a dead value (a same-named value of
# another module, or a bare v under an open), but it does not report a
# live one that is reached through an alias or a re-export.
#
# Each reported value is tagged:
#   unused    no reference in its own module either: nothing runs it;
#   internal  used inside its own module only (a registry entry, a helper
#             of an exported function): exported more widely than needed;
# and, in a second column, `tested` when a file under test/ references it
# by the same rules (deleting it deletes or rewrites a test).

set -eu
cd "$(dirname "$0")/.."
exec python3 - <<'EOF'
import glob, os, re

def modname(path):
    return os.path.basename(path).rsplit(".", 1)[0].capitalize()

def strip_comments(text):
    """[text] without comments, string contents or character literals."""
    out, depth, i, n = [], 0, 0, len(text)
    in_str = False
    while i < n:
        c = text[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == '"':
                in_str = False
                if depth == 0:
                    out.append(c)
            i += 1
        elif text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth > 0 and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            in_str = True
            if depth == 0:
                out.append(c)
            i += 1
        elif depth > 0:
            i += 1
        elif c == "'" and i + 2 < n and text[i + 2] == "'":
            i += 3
        elif c == "'" and i + 1 < n and text[i + 1] == "\\":
            close = text.find("'", i + 2)
            i = close + 1 if 0 < close < i + 8 else i + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)

# Libraries: directory -> wrapper module name, and what its main module
# re-exports with `include`.
libs = {}
for dune in sorted(glob.glob("lib/*/dune")):
    d = os.path.dirname(dune)
    m = re.search(r"\(name\s+(\w+)\)", open(dune).read())
    if not m:
        continue
    name = m.group(1)
    main = os.path.join(d, name + ".ml")
    includes = set()
    if os.path.exists(main):
        includes = set(re.findall(r"^include\s+(\w+)",
                                  strip_comments(open(main).read()), re.M))
    libs[d] = (name.capitalize(), name + ".ml", includes)

# Exported values: (library, module, submodule path, value, own files).
values = []
for d, (lib, main, _) in libs.items():
    for mli in sorted(glob.glob(os.path.join(d, "*.mli"))):
        if os.path.basename(mli)[:-1] == main:
            continue
        mod = modname(mli)
        stack = []
        for line in strip_comments(open(mli).read()).splitlines():
            m = re.match(r"\s*module\s+(\w+)\s*:\s*sig\b", line)
            if m:
                stack.append(m.group(1))
                continue
            if re.match(r"\s*end\b", line) and stack:
                stack.pop()
                continue
            m = re.match(r"\s*val\s+([a-z_][\w']*)\s*:", line)
            if m:
                own = {mli, mli[:-1]}
                values.append((lib, mod, tuple(stack), m.group(1), own))

def read_sources(patterns):
    return {f: strip_comments(open(f).read())
            for pat in patterns for f in glob.glob(pat, recursive=True)}

sources = read_sources(("lib/**/*.ml", "lib/**/*.mli", "bin/**/*.ml",
                        "bench/**/*.ml", "examples/**/*.ml"))
tests = read_sources(("test/**/*.ml",))

alias_re = re.compile(r"\bmodule\s+([A-Z]\w*)\s*=\s*([A-Z][\w.]*)")
qual_re = re.compile(r"([A-Z]\w*)\.([a-z_][\w']*)")
bare_re = re.compile(r"(?<![.~?'\w])([a-z_][\w']*)")
open_re = re.compile(
    r"\b(?:open!?|include)\s+((?:[A-Z]\w*\.)*[A-Z]\w*)"
    r"|((?:[A-Z]\w*\.)*[A-Z]\w*)\.\(")
aliases, quals, bares, opened = {}, {}, {}, {}
for f, t in list(sources.items()) + list(tests.items()):
    aliases[f] = alias_re.findall(t)
    quals[f] = set(qual_re.findall(t))
    bares[f] = set(bare_re.findall(t))
    opened[f] = {(a or b).rsplit(".", 1)[-1] for a, b in open_re.findall(t)}

def names_for(f, target):
    """Names that denote the module whose path ends in [target] in f."""
    names = {target}
    for a, rhs in aliases[f]:
        if rhs == target or rhs.endswith("." + target):
            names.add(a)
    return names

def referenced(files, lib, mod, subs, v, own):
    inner = subs[-1] if subs else mod
    incl = any(l == lib and mod in inc for l, _, inc in libs.values())
    for f in files:
        if f in own:
            continue
        names = names_for(f, inner)
        if incl and not subs:
            names |= names_for(f, lib)
        if any((n, v) in quals[f] for n in names):
            return True
        if names & opened[f] and v in bares[f]:
            return True
    return False

def used_inside(v, own):
    ml = [f for f in own if f.endswith(".ml")]
    if not ml or ml[0] not in sources:
        return False
    hits = re.findall(r"(?<![.~?'\w])" + re.escape(v) + r"(?![\w'])",
                      sources[ml[0]])
    return len(hits) > 1

rows = []
for lib, mod, subs, v, own in values:
    if not referenced(sources, lib, mod, subs, v, own):
        tag = "internal" if used_inside(v, own) else "unused"
        tested = "tested" if referenced(tests, lib, mod, subs, v, own) else "-"
        rows.append((".".join((lib, mod) + subs + (v,)), tag, tested))
for path, tag, tested in sorted(rows):
    print(f"{tag:8}  {tested:6}  {path}")
print(f"dead-values: {len(rows)} of {len(values)} exported values have no "
      f"reference outside their module and test/")
EOF
