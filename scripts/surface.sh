#!/bin/sh
# Public items per library crate, and how many of them nothing calls.
#
# The surface comes from rustdoc's JSON output, built twice per crate: plain
# and with every feature on (the oracle hooks CI's clippy step compiles), so a
# feature-gated item counts too. A public item is a type, trait, function,
# method, constant, static, type alias or associated item reachable from the
# crate root; fields, variants, impls, re-exports, modules and the methods of
# trait impls are not counted. `#[doc(hidden)]` items are counted.
#
# A public item counts as called when its name appears as a word in
#   - another member crate (its code, tests and examples),
#   - the crate's own `tests/` or `examples/`,
#   - a root test or example,
#   - a doctest (a Rust code block of a doc comment, anywhere), or
#   - `benchmark/src`,
# with comments and `pub use` lines left out: a re-export alone calls nothing.
# It also counts as called when it appears in the signature of a called item
# (a parameter, return, bound, public field or variant type, or a member of
# one of its trait impls), as `Reclaim` does in the closure `HandleCore::scan`
# lends, and a scheme's handle in its `type Handle = ...`. A name scan
# over-counts callers where names collide, so an uncalled item is certainly
# uncalled; a called one may not be. Items kept public on purpose are listed,
# with the reason, in `KEPT` below and not counted as uncalled.
#
# The facade (`qsense-repro`, `src/lib.rs`) publishes only re-exports: one
# counts as called when a root test, an example or the facade's doctest names
# it through a `qsense_repro::` path.
#
#   scripts/surface.sh           print the table and every uncalled item
#   scripts/surface.sh --check   also compare it with scripts/surface.baseline:
#                                exit 1 if a count differs from its baseline,
#                                either way (a PR that grows or shrinks a
#                                surface edits the baseline in the same diff)
#
# Needs a nightly toolchain, because rustdoc's JSON output is unstable, and
# python3.
cd "$(dirname "$0")/.." || exit 1
if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "surface.sh: needs a nightly toolchain (rustup toolchain install nightly):" \
        "rustdoc's JSON output is unstable" >&2
    exit 2
fi
out=target/surface
mkdir -p "$out"
packages="qsense-repro"
for manifest in crates/*/Cargo.toml; do
    [ -f "$(dirname "$manifest")/src/lib.rs" ] || continue
    packages="$packages $(basename "$(dirname "$manifest")")"
done
for package in $packages; do
    crate=$(echo "$package" | tr - _)
    for build in plain all; do
        features=
        [ "$build" = all ] && features=--all-features
        # shellcheck disable=SC2086
        if ! CARGO_TARGET_DIR="$out" cargo +nightly rustdoc --quiet --offline -p "$package" --lib \
            $features -- -Zunstable-options --output-format json --document-hidden-items \
            2>"$out/rustdoc.log"; then
            cat "$out/rustdoc.log" >&2
            exit 1
        fi
        mv "$out/doc/$crate.json" "$out/$crate.$build.json"
    done
done

python3 - "$1" "$out" $packages <<'EOF'
import json
import re
import sys
from pathlib import Path

mode, out, packages = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
COUNTED = {"struct", "enum", "union", "trait", "function", "constant", "static",
           "type_alias", "assoc_const", "assoc_type", "macro", "trait_alias"}
DOCTEST_FENCES = {"", "rust", "no_run", "should_panic", "compile_fail", "edition2018",
                  "edition2021", "edition2024"}

# Uncalled items kept public on purpose, each with its reason. The gate lists
# them apart and does not count them as uncalled.
KEPT = {
    "workload::structures::BenchSet::structure_name":
        "a method of the public trait `BenchSet`, which `benchmark/` drives; "
        "`run_experiment` reads it through `dyn BenchSet`",
    "workload::structures::BenchSet::telemetry_summary":
        "a method of the public trait `BenchSet`, which `benchmark/` drives; "
        "`run_experiment` reads it through `dyn BenchSet`",
}


def doctests(text):
    """The Rust code blocks of every doc comment in `text`."""
    code, fence = [], None
    for line in text.splitlines():
        m = re.match(r"\s*//[/!] ?(.*)", line)
        if not m:
            fence = None
            continue
        body = m.group(1)
        if body.lstrip().startswith("```"):
            if fence is None:
                info = body.lstrip()[3:].strip()
                fence = all(tag.strip() in DOCTEST_FENCES for tag in info.split(","))
            else:
                fence = None
        elif fence:
            code.append(re.sub(r"^# ?", "", body))
    return "\n".join(code)


def code(text):
    """`text` without its comments and `pub use` items, plus its doctests."""
    bare = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    bare = re.sub(r"//.*", "", bare)
    bare = re.sub(r"\bpub(\([^)]*\))?\s+use\b[^;]*;", "", bare)
    return bare + "\n" + doctests(text)


def words(text):
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))


def sources(*dirs):
    for d in dirs:
        yield from sorted(Path(d).rglob("*.rs")) if Path(d).is_dir() else ()


member_dirs = sorted(p.parent for p in Path("crates").glob("*/Cargo.toml"))
root_callers = list(sources("tests", "examples", "benchmark/src"))
facade_doc = doctests(Path("src/lib.rs").read_text())


def callers_of(crate_dir):
    """Every word that calls into the crate at `crate_dir`."""
    text = [code(f.read_text()) for f in root_callers]
    text.append(facade_doc)
    for d in member_dirs:
        if d == crate_dir:
            text += [code(f.read_text()) for f in sources(d / "tests", d / "examples", d / "benches")]
            text += [doctests(f.read_text()) for f in sources(d / "src")]
        else:
            text += [code(f.read_text()) for f in sources(d)]
    return words("\n".join(text))


def referenced_ids(node, found):
    """Ids of the items a type, bound or signature names."""
    if isinstance(node, dict):
        if isinstance(node.get("id"), int) and "path" in node:
            found.add(node["id"])
        for value in node.values():
            referenced_ids(value, found)
    elif isinstance(node, list):
        for value in node:
            referenced_ids(value, found)
    return found


class Surface:
    """The public items of one rustdoc JSON build, keyed by path."""

    def __init__(self, path):
        doc = json.loads(path.read_text())
        self.index = doc["index"]
        self.paths = doc["paths"]
        self.items = {}  # id -> key
        self.names = {}  # id -> name
        self.spans = {}  # key -> file:line
        self.seen = set()  # ids walked, so a re-export cycle ends
        self.walk(doc["root"], [])

    def item(self, i):
        return self.index.get(str(i))

    def walk(self, i, path):
        item = self.item(i)
        if item is None or item["crate_id"] != 0 or i in self.seen:
            return
        self.seen.add(i)
        kind, inner = next(iter(item["inner"].items()))
        if kind == "module":
            for child in inner["items"]:
                self.walk(child, path + [item["name"]])
        elif kind == "use" and inner["id"] is not None:
            target = self.item(inner["id"])
            if inner["is_glob"] and target is not None and "module" in target["inner"]:
                for child in target["inner"]["module"]["items"]:
                    self.walk(child, path)
            else:
                self.walk(inner["id"], path)
        elif kind in COUNTED:
            canonical = self.paths.get(str(i), {}).get("path", path + [item["name"]])
            self.add(i, "::".join(canonical[1:]), item["name"])
            members = []
            if kind in ("struct", "enum", "union"):
                for impl in inner["impls"]:
                    block = self.item(impl)["inner"]["impl"]
                    if block["trait"] is None and not block["is_synthetic"]:
                        members += block["items"]
            elif kind == "trait":
                members = inner["items"]
            key = self.items[i]
            for m in members:
                sub = self.item(m)
                if sub is not None and sub["crate_id"] == 0:
                    self.add(m, key + "::" + sub["name"], sub["name"])

    def add(self, i, key, name):
        if i not in self.items:
            self.items[i] = key
            self.names[i] = name
            span = self.item(i)["span"]
            self.spans[key] = f"{span['filename']}:{span['begin'][0]}" if span else "?"

    def members(self, ids, found):
        """Adds the ids the items `ids` (fields, impl members) name."""
        for m in ids:
            if m is not None and self.item(m) is not None:
                referenced_ids(self.item(m)["inner"], found)

    def signature(self, i):
        """Ids named by the item's signature, its public fields and variant
        fields, and the members of its trait impls (a scheme's
        `type Handle = ...` names its handle)."""
        kind, inner = next(iter(self.item(i)["inner"].items()))
        found = set()
        if kind not in ("struct", "enum", "union"):
            skip = ("items", "implementations")
            referenced_ids({k: v for k, v in inner.items() if k not in skip}, found)
            return found
        referenced_ids(inner["generics"], found)
        for impl in inner["impls"]:
            block = self.item(impl)["inner"]["impl"]
            if block["trait"] and not block["is_synthetic"] and not block["blanket_impl"]:
                referenced_ids({k: v for k, v in block.items() if k != "items"}, found)
                self.members(block["items"], found)
        shapes = [inner.get("kind")] if kind == "struct" else \
            [{"plain": {"fields": inner["fields"]}}] if kind == "union" else \
            [self.item(v)["inner"]["variant"]["kind"] for v in inner["variants"]]
        for shape in shapes:
            if isinstance(shape, dict):  # not a unit struct or variant
                (form, body), = shape.items()
                self.members(body if form == "tuple" else body["fields"], found)
        return found

    def called(self, caller_words):
        done = {i for i, name in self.names.items() if name in caller_words}
        todo = list(done)
        while todo:
            for j in self.signature(todo.pop()):
                if j in self.items and j not in done:
                    done.add(j)
                    todo.append(j)
        return {self.items[i] for i in done}


def facade():
    """The facade's re-exports, and those a `qsense_repro::` path names."""
    exports = {}
    for module, names in re.findall(r"pub mod (\w+) \{(.*?)\n\}", Path("src/lib.rs").read_text(), re.S):
        for use in re.findall(r"pub use ([^;]*);", names):
            prefix, _, tail = use.partition("{")
            last = prefix.rstrip(":").split("::")[-1]
            for name in (tail.rstrip("}").split(",") if tail else [last]):
                if name.strip():
                    exports[f"{module}::{name.strip()}"] = "src/lib.rs"
    named = set()
    for text in [code(f.read_text()) for f in sources("tests", "examples")] + [facade_doc]:
        for m in re.finditer(r"\bqsense_repro::", text):
            end, depth = m.end(), 0
            while end < len(text) and (depth or re.match(r"[\w:{]", text[end])):
                depth += (text[end] == "{") - (text[end] == "}")
                end += 1
            named |= use_paths(" ".join(text[m.end():end].split()))
    return exports, {e for e in exports if any(n == e or n.startswith(e + "::") for n in named)}


def use_paths(tree):
    """Flatten a use tree such as `smr::{A, B::c}` into its paths."""
    tree = tree.strip()
    prefix, brace, rest = tree.partition("{")
    if not brace:
        return {re.sub(r"\s+as\s+\w+$", "", tree)}
    paths, depth, part = set(), 0, ""
    for ch in rest[:-1]:
        if ch == "," and depth == 0:
            paths |= {prefix + p for p in use_paths(part)} if part.strip() else set()
            part = ""
            continue
        depth += (ch == "{") - (ch == "}")
        part += ch
    if part.strip():
        paths |= {prefix + p for p in use_paths(part)}
    return paths


rows, uncalled_items, kept_items = [], [], []
for package in packages:
    crate = package.replace("-", "_")
    if package == "qsense-repro":
        public, called = facade()
    else:
        crate_dir = Path("crates") / package
        caller_words = callers_of(crate_dir)
        public, called = {}, set()
        for build in ("plain", "all"):
            surface = Surface(out / f"{crate}.{build}.json")
            public.update(surface.spans)
            called |= surface.called(caller_words)
    uncalled = sorted(set(public) - called)
    kept = [k for k in uncalled if f"{crate}::{k}" in KEPT]
    uncalled_items += [f"{crate}::{k} ({public[k]})" for k in uncalled if k not in kept]
    kept_items += [f"{crate}::{k}" for k in kept]
    rows.append((package, len(public), len(uncalled) - len(kept)))

table = [f"{p:<14} {n:6d} {u:8d}" for p, n, u in rows]
table.append(f"{'total':<14} {sum(r[1] for r in rows):6d} {sum(r[2] for r in rows):8d}")
for item in kept_items:
    print(f"kept public: {item} ({KEPT[item]})")
for item in uncalled_items:
    print(f"uncalled:    {item}")
print(f"{'crate':<14} {'public':>6} {'uncalled':>8}")
if mode != "--check":
    print("\n".join(table))
    sys.exit(0)
base = {}
for line in Path("scripts/surface.baseline").read_text().splitlines():
    name, public, uncalled = line.split()
    base[name] = (int(public), int(uncalled))
bad = False
for line in table:
    name, public, uncalled = line.split()
    now = (int(public), int(uncalled))
    if name not in base:
        print(f"{line}  not in scripts/surface.baseline")
        bad = True
    elif now != base[name]:
        print(f"{line}  differs from its baseline of {base[name][0]} {base[name][1]}: copy the new figures in")
        bad = True
    else:
        print(line)
sys.exit(1 if bad else 0)
EOF
