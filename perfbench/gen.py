"""Seeded generators for the benchmark's input models.

Kconfig-shaped models: a root with a mandatory chain under it (those
features are core), optional menus filled breadth-first with sub-options,
some of them mandatory, and alternative / or groups (Kconfig's ``choice``)
under optional menus only. Cross-tree constraints mix ``A => B``,
``A => !B`` and ``A => B | C`` between features the tree does not already
tie together; a few ``X => !P`` constraints exclude an optional ancestor P
of a leaf X, so X is dead. Shares and fan-outs are fixed, so the seed moves
where things go rather than how many there are, which keeps the cost of one
pool slot steady from seed to seed.

Satisfiability is guaranteed by construction: every constraint's left side
is a non-core feature and every group hangs under an optional menu, so the
configuration that selects only the core chain satisfies all clauses.

The same seed gives byte-identical files: every random choice is drawn from
a ``random.Random`` seeded with a string, which Python hashes with SHA-512,
independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

import fmnet

# (features, cross-tree constraints per feature) of the analyze/validate pool.
# The ratios span 0.05-0.3 and are fixed per slot, so the seed changes only
# the shape of each model, not its size or constraint density.
KCONFIG_POOL = ((60, 0.30), (80, 0.05), (100, 0.20), (120, 0.10), (140, 0.25))
# Models per slot. One model's cost moves by about 10% from seed to seed;
# five per slot average most of that out of the per-size timings.
KCONFIG_COPIES = "abcde"

CORE_SHARE = 0.06      # mandatory chain under the root
DEAD_SHARE = 0.04      # leaves killed by excluding an ancestor
MAX_DEPTH = 6

CORPUS_SIZE = 400
CORPUS_DOMAINS = ("automotive", "embedded", "systems")
DIMACS_EVERY = 5       # every fifth corpus entry is written as DIMACS
# Planted failures at fixed manifest positions: a void model must fail with
# VoidModelError, a broken file with a parse error. Both formats appear.
VOID_AT = {57: "fm", 174: "dimacs", 291: "fm"}
BROKEN_AT = {101: "fm", 233: "dimacs", 347: "fm"}


@dataclass
class _Node:
    name: str
    parent: "_Node | None"
    depth: int
    mandatory: bool = False
    core: bool = False
    member: bool = False
    children: list["_Node"] = field(default_factory=list)
    groups: list[tuple[str, list["_Node"]]] = field(default_factory=list)

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


def kconfig_model(n: int, ratio: float, rng: random.Random, prefix: str = "F") -> str:
    """Return the ``.fm`` text of one Kconfig-shaped model with n features."""
    root = _Node(f"{prefix}_ROOT", None, 0, mandatory=True, core=True)
    nodes = [root]

    def new(parent: _Node, **flags) -> _Node:
        node = _Node(f"{prefix}{len(nodes):03d}", parent, parent.depth + 1, **flags)
        nodes.append(node)
        return node

    chain = root
    for _ in range(max(1, round(CORE_SHARE * n))):
        chain = new(chain, mandatory=True, core=True)
        chain.parent.children.append(chain)

    # Menus fill breadth-first: each open menu takes two to four entries
    # (a sub-option or a group), so depth grows with size, not with luck.
    menus = [new(root if rng.random() < 0.5 else rng.choice(nodes[1:]))
             for _ in range(max(1, round((n - len(nodes)) / 12)))]
    for menu in menus:
        menu.parent.children.append(menu)
    queue = list(menus)
    while len(nodes) < n:
        parent = queue.pop(0) if queue else rng.choice(menus)
        for _ in range(rng.randint(2, 4)):
            left = n - len(nodes)
            if left <= 0:
                break
            if left >= 2 and rng.random() < 0.12:
                kind = "alternative" if rng.random() < 0.6 else "or"
                members = [new(parent, member=True) for _ in range(min(left, rng.randint(2, 3)))]
                parent.groups.append((kind, members))
                continue
            child = new(parent, mandatory=rng.random() < 0.15)
            parent.children.append(child)
            if child.depth < MAX_DEPTH:
                queue.append(child)

    constraints = []
    killers = []
    for x in nodes:
        optional_ancestor = next(
            (a for a in x.ancestors() if not a.core and not a.mandatory), None)
        if (not x.core and not x.mandatory and not x.member and not x.children
                and not x.groups and optional_ancestor is not None):
            killers.append((x, optional_ancestor))
    rng.shuffle(killers)
    killers = killers[:max(1, round(DEAD_SHARE * n))]
    for x, ancestor in killers:
        constraints.append(f"{x.name} => !{ancestor.name}")

    killed = {x.name for x, _ in killers}
    eligible = [x for x in nodes if not x.core and x.name not in killed]
    alternatives = {}
    for x in nodes:
        for kind, members in x.groups:
            if kind == "alternative":
                for m in members:
                    alternatives[m.name] = id(members)

    def forced(x: _Node) -> set[int]:
        """Features that selecting x forces through the tree alone."""
        out, stack = set(), [x, *x.ancestors()]
        while stack:
            node = stack.pop()
            if id(node) not in out:
                out.add(id(node))
                stack.extend(c for c in node.children if c.mandatory)
        return out

    def related(a: _Node, b: _Node) -> bool:
        if id(b) in forced(a) or id(a) in forced(b):
            return True
        group = alternatives.get(a.name)
        return group is not None and group == alternatives.get(b.name)

    for _ in range(max(0, round(ratio * n) - len(killers))):
        # Small trees may have no unrelated triple; give up after a few draws.
        for _ in range(20):
            a, b, c = rng.sample(eligible, 3) if len(eligible) >= 3 else (root,) * 3
            if not (related(a, b) or related(a, c) or b is c):
                break
        else:
            continue
        shape = rng.random()
        if shape < 0.5:
            constraints.append(f"{a.name} => {b.name}")
        elif shape < 0.8:
            constraints.append(f"{a.name} => !{b.name}")
        else:
            constraints.append(f"{a.name} => {b.name} | {c.name}")

    lines = [f"feature {root.name}"]

    def emit(node: _Node) -> None:
        pad = "    " * node.depth
        for child in node.children:
            lines.append(f"{pad}    {'mandatory' if child.mandatory else 'optional'} {child.name}")
            emit(child)
        for kind, members in node.groups:
            lines.append(f"{pad}    {kind} {{ {' '.join(m.name for m in members)} }}")

    emit(root)
    lines.extend(f"    constraint {text}" for text in constraints)
    return "\n".join(lines) + "\n"


def kconfig_pool(seed: int, out_dir: Path, sizes=None, copies=KCONFIG_COPIES) -> list[list[Path]]:
    """Write the pool for ``seed``, or only its slots of the given ``sizes``
    and ``copies``; return one list of paths per copy, smallest model first."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rounds = []
    for copy in copies:
        paths = []
        for n, ratio in KCONFIG_POOL:
            if sizes is not None and n not in sizes:
                continue
            model_id = f"k{n:03d}{copy}"
            rng = random.Random(f"kconfig:{seed}:{model_id}")
            path = out_dir / f"{model_id}.fm"
            path.write_text(kconfig_model(n, ratio, rng, prefix=f"K{n}_"), "utf-8")
            paths.append(path)
        rounds.append(paths)
    return rounds


@dataclass(frozen=True)
class TinyCorpus:
    manifest: Path
    planted: dict[str, str]     # id -> "void" or "broken"
    largest: frozenset[str]     # ids of the well-formed entries with the most features


def tiny_corpus(seed: int, out_dir: Path) -> TinyCorpus:
    """Write the tiny-model corpus and its manifest."""
    models = out_dir / "models"
    models.mkdir(parents=True, exist_ok=True)
    rows = []
    planted = {}
    sizes = {}
    for idx in range(CORPUS_SIZE):
        model_id = f"m{idx:03d}"
        rng = random.Random(f"corpus:{seed}:{model_id}")
        sizes[model_id] = rng.randint(5, 14)
        text = kconfig_model(sizes[model_id], rng.uniform(0.1, 0.3), rng, prefix="T")
        fmt = "dimacs" if idx % DIMACS_EVERY == DIMACS_EVERY - 1 else "fm"
        if idx in VOID_AT:
            fmt = VOID_AT[idx]
            planted[model_id] = "void"
            # T001 heads the mandatory chain, so excluding it from the root
            # leaves no configuration.
            text += "    constraint T_ROOT => !T001\n"
        if idx in BROKEN_AT:
            fmt = BROKEN_AT[idx]
            planted[model_id] = "broken"
        if fmt == "dimacs":
            body = fmnet.emit_dimacs(fmnet.parse_fm_to_cnf(text))
            if planted.get(model_id) == "broken":
                body = body.replace("p cnf", "p cnf x", 1)
            name = f"{model_id}.cnf"
        else:
            body = text
            if planted.get(model_id) == "broken":
                body = body.replace("optional", "optinal", 1)
            name = f"{model_id}.fm"
        (models / name).write_text(body, "utf-8")
        rows.append((model_id, f"models/{name}", fmt, CORPUS_DOMAINS[idx % 3]))
    manifest = out_dir / "manifest.csv"
    with manifest.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "path", "format", "domain"])
        writer.writerows(rows)
    top = max(sizes.values())
    largest = frozenset(m for m, n in sizes.items() if n == top and m not in planted)
    return TinyCorpus(manifest, planted, largest)
