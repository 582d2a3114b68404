#!/usr/bin/env bash
# The two tracked size numbers of the code base, from one command.
#
#   scripts/surface.sh [ROOT]
#
# ROOT defaults to the current directory; run it from the root of the
# repository.  It prints:
#
#   1. production lines: every .ml and .mli under lib/, bin/ and bench/
#      (`cat $(find lib bin bench -name '*.ml' -o -name '*.mli') | wc -l`);
#   2. the exported values no production code calls: one line per `val` or
#      `external` in lib/**/*.mli that no .ml file under lib/, bin/,
#      bench/, perfbench/, examples/ or scripts/ references, other than the
#      module's own .ml.  Each line ends in "test-only" when a test under
#      test/ references the value and "no caller" when nothing does.  The
#      count of these values is the last line.
#
# References are resolved from the source text.  Comments and string
# literals are dropped first.  A value counts as referenced from a file by
# its full path (Checkpoint.Wire.get_count), by a suffix of that path under
# a module the file opens (`open M`, `let open M in`, `M.( … )`), or through
# a module alias (`module W = Checkpoint.Wire`).  An open is taken to cover
# the whole file, so a local binding with the same name as an opened value
# counts as a reference to it: the scan can miss an unused value, but it
# does not list one that a production file names.
#
# It only reads files, and always exits 0 when it ran: CI prints it as a
# report and does not gate on it.

set -eu

ROOT=${1:-.}
cd "$ROOT"

echo "production lines (lib bin bench, .ml + .mli): $(cat $(find lib bin bench -name '*.ml' -o -name '*.mli') | wc -l)"

python3 - <<'PY'
import os
import re

PRODUCTION = ["lib", "bin", "bench", "perfbench", "examples", "scripts"]
TESTS = ["test"]


def strip(src):
    """Source text without comments, string or character literals."""
    out = []
    i, n, depth = 0, len(src), 0

    def skip_string(i):
        i += 1
        while i < n and src[i] != '"':
            i += 2 if src[i] == "\\" else 1
        return i + 1

    char_lit = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2})|[^\\'\n])'")
    while i < n:
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth > 0 and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif src[i] == '"':
            i = skip_string(i)
            if depth == 0:
                out.append('""')
        elif src[i] == "'" and not (i > 0 and (src[i - 1].isalnum() or src[i - 1] in "_'")):
            m = char_lit.match(src, i)
            if m:
                i = m.end()
                if depth == 0:
                    out.append("' '")
            else:
                if depth == 0:
                    out.append("'")
                i += 1
        else:
            if depth == 0:
                out.append(src[i])
            i += 1
    return "".join(out)


def files(dirs, ext):
    for d in dirs:
        for dirpath, dirnames, names in os.walk(d):
            dirnames[:] = sorted(x for x in dirnames if x != "_build")
            for name in sorted(names):
                if name.endswith(ext):
                    yield os.path.join(dirpath, name)


def module_of(path):
    base = os.path.basename(path).rsplit(".", 1)[0]
    return base[:1].upper() + base[1:]


MLI_TOKEN = re.compile(
    r"\bmodule\s+([A-Z][\w']*)\s*:\s*sig\b"
    r"|\b(sig|struct|object|begin)\b"
    r"|\bend\b"
    r"|\b(?:val|external)\s+([a-z_][\w']*)"
)


def exports(path):
    """(module path, name) for every value an .mli exports."""
    stack = [module_of(path)]
    for m in MLI_TOKEN.finditer(strip(open(path, encoding="utf-8").read())):
        if m.group(1):
            stack.append(m.group(1))
        elif m.group(2):
            stack.append(None)  # a module type or other anonymous block
        elif m.group(0) == "end":
            if len(stack) > 1:
                stack.pop()
        elif None not in stack:
            yield (tuple(stack), m.group(3))


MODPATH = r"[A-Z][\w']*(?:\.[A-Z][\w']*)*"
ALIAS = re.compile(r"\bmodule\s+([A-Z][\w']*)\s*=\s*(" + MODPATH + r")")
OPEN = re.compile(r"\bopen!?\s+(" + MODPATH + r")")
LOCAL_OPEN = re.compile(r"(?<![\w'.])(" + MODPATH + r")\.[(\[{]")
REF = re.compile(r"(?<![\w'])((?:[A-Z][\w']*\.)*)([a-z_][\w']*)")


def references(path):
    """Every (module path, name) a .ml file can be naming."""
    src = strip(open(path, encoding="utf-8").read())
    aliases = {a: tuple(p.split(".")) for a, p in ALIAS.findall(src)}

    def unalias(p):
        return aliases[p[0]] + p[1:] if p and p[0] in aliases else p

    opened = [unalias(tuple(p.split("."))) for p in OPEN.findall(src) + LOCAL_OPEN.findall(src)]
    # An open can name a submodule of an earlier open (`open M` … `open Sub`).
    opened += [q + p for p in opened for q in opened if q != p]
    refs = set()
    for prefix, name in REF.findall(src):
        p = unalias(tuple(prefix.rstrip(".").split("."))) if prefix else ()
        refs.add((p, name))
        for o in opened:
            refs.add((o + p, name))
    return refs


def referenced_by(dirs):
    """(module path, name) → set of files naming it."""
    users = {}
    for f in files(dirs, ".ml"):
        for r in references(f):
            users.setdefault(r, set()).add(f)
    return users


prod, tests = referenced_by(PRODUCTION), referenced_by(TESTS)
unused = []
for mli in files(["lib"], ".mli"):
    own = mli[:-1]
    for modpath, name in exports(mli):
        if prod.get((modpath, name), set()) - {own}:
            continue
        tag = "test-only" if tests.get((modpath, name)) else "no caller"
        unused.append((".".join(modpath + (name,)), tag))
for value, tag in unused:
    print(f"  {value:<52} {tag}")
print(f"exported values with no caller outside test/: {len(unused)}"
      f" ({sum(t == 'no caller' for _, t in unused)} with no caller at all)")
PY
