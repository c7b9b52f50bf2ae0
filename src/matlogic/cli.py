"""Batch command-line front end.

One subcommand per public operation.  Matrices and atlases come either
from presets (``--preset L3``, ``--preset G4``) or from a JSON workspace
file (``--file ws.json --matrix M``).  Exit codes: 0 yes/valid/proved,
1 no/invalid/unprovable, 2 usage or input error, 3 resource cap exceeded.

Workspace schema::

    {"signature": {"connectives": [{"name": str, "arity": nat}]},
     "algebras":  {name: {"elements": [str], "operations": {name: nested}}},
     "matrices":  {name: {"algebra": str, "designated": [str]}},
     "atlases":   {name: {"algebra": str, "filters": [[str]]}},
     "options":   {"max_clone": nat, "max_tuples": nat, "memo_limit": nat}}

An arity-k operation is a k-times nested array over element names; an
arity-0 operation is a bare element name.  Reports are deterministic:
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import re
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import eqlogic, intprover, lang
from .lang import (
    BOOLEAN_SIGNATURE,
    CLASSICAL_SIGNATURE,
    COMBINE_KINDS,
    Formula,
    ParseError,
    Signature,
    Substitution,
    _printed,
    parse_formula,
)
from .limits import CapExceeded, Memo, ResourceCaps

# numpy and the matrix layers are imported by the commands that use them
if TYPE_CHECKING:
    from . import algebra as alg_mod
    from . import decide
    from . import matrices as mat_mod


class WorkspaceError(ValueError):
    """Schema violation or dangling reference, with a JSON-pointer location."""

    def __init__(self, pointer: str, message: str) -> None:
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


@dataclass(frozen=True)
class WorkspaceSpec:
    """A validated workspace.  Its signature and caps need no numpy; its
    algebras, matrices and atlases are built from the validated entries on
    first use, and every mapping is read-only, so no command can change a
    spec that load_spec keeps."""

    signature: Signature
    caps: ResourceCaps
    # algebra name -> (elements, operation name -> table entries in row-major order)
    _algebras: Dict[str, Tuple[List[str], Dict[str, List[int]]]]
    # matrix name -> (algebra name, designated indices)
    _matrices: Dict[str, Tuple[str, frozenset]]
    # atlas name -> (algebra name, filters as index sets)
    _atlases: Dict[str, Tuple[str, Tuple[frozenset, ...]]]

    @functools.cached_property
    def algebras(self) -> Mapping[str, alg_mod.FiniteAlgebra]:
        import numpy as np

        from .algebra import FiniteAlgebra

        return MappingProxyType({
            name: FiniteAlgebra(self.signature, elements, {
                op: np.array(tables[op], dtype=np.int64).reshape((len(elements),) * arity)
                for op, arity in self.signature.operations
            })
            for name, (elements, tables) in self._algebras.items()
        })

    @functools.cached_property
    def matrices(self) -> Mapping[str, mat_mod.Matrix]:
        from .matrices import Matrix

        return MappingProxyType(
            {name: Matrix(self.algebras[a], des) for name, (a, des) in self._matrices.items()}
        )

    @functools.cached_property
    def atlases(self) -> Mapping[str, mat_mod.Atlas]:
        from .matrices import Atlas

        return MappingProxyType(
            {name: Atlas(self.algebras[a], fams) for name, (a, fams) in self._atlases.items()}
        )


def _segment(name: str) -> str:
    """A document key or name as one JSON-pointer segment (RFC 6901)."""
    return name.replace("~", "~0").replace("/", "~1")


def _expect(cond: bool, pointer: str, message: str) -> None:
    if not cond:
        raise WorkspaceError(pointer, message)


def _table_entries(raw: Any, arity: int, elements: Sequence[str], pointer: str) -> List[int]:
    """The element indices of an arity-k table of element names in row-major
    order, walked depth first on an explicit stack, so the first error
    reported is the first in document order."""
    index = {e: i for i, e in enumerate(elements)}
    k = len(elements)
    flat: List[int] = []  # the entries in row-major order
    todo = [(raw, arity, pointer)]
    while todo:
        node, depth, ptr = todo.pop()
        if not depth:
            if not isinstance(node, str):
                raise WorkspaceError(ptr, "expected an element name")
            if node not in index:
                raise WorkspaceError(ptr, f"unknown element {node!r}")
            flat.append(index[node])
        elif not isinstance(node, list):
            raise WorkspaceError(ptr, "expected an array")
        elif len(node) != k:
            raise WorkspaceError(ptr, f"row has {len(node)} entries, expected {k}")
        else:
            depth -= 1
            todo.extend([(node[i], depth, f"{ptr}/{i}") for i in range(k - 1, -1, -1)])
    return flat


_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer"}
_REQUIRED: Any = object()


def _member(
    doc: Dict[str, Any], key: str, pointer: str, kind: type, default: Any = _REQUIRED
) -> Any:
    """doc[key], which must be of the JSON kind given, or default when the key
    is absent and the member is optional.  The kind is matched exactly, so
    JSON's true is not taken for the integer 1."""
    if key not in doc and default is not _REQUIRED:
        return default
    value = doc.get(key)
    _expect(type(value) is kind, f"{pointer}/{key}", f"expected {_KINDS[kind]}")
    return value


def _items(
    doc: Dict[str, Any], key: str, pointer: str, kind: type, default: Any = ()
) -> Sequence[Any]:
    """The array doc[key], each item of the JSON kind given, or default when
    the key is absent and the array optional."""
    items = _member(doc, key, pointer, list, default)
    for i, item in enumerate(items):
        _expect(type(item) is kind, f"{pointer}/{key}/{i}", f"expected {_KINDS[kind]}")
    return items


def _element_set(raw: Any, index: Dict[str, int], pointer: str) -> frozenset:
    """The indices of an array of carrier element names."""
    _expect(isinstance(raw, list), pointer, "expected an array")
    idxs = set()
    for i, e in enumerate(raw):
        _expect(
            isinstance(e, str) and e in index,
            f"{pointer}/{i}",
            f"{e!r} is not a carrier element",
        )
        idxs.add(index[e])
    return frozenset(idxs)


# Workspaces are kept between calls (_SPECS), keyed by the file's bytes: the
# same bytes always give the same spec.  An entry weighs the file's bytes.  A
# file that fails to load is not kept, so it raises the same error on every call.
_SPECS = Memo(1 << 20)  # the clone-decide benchmark's 22 files take 31 KB


def load_spec(path: str) -> WorkspaceSpec:
    """The workspace in the file at path, parsed again only when the file's
    bytes are new to the process."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise WorkspaceError("/", f"file not found: {path}")
    except OSError as exc:
        raise WorkspaceError("/", f"cannot read file: {exc}")
    spec = _SPECS.recall(data)
    if spec is None:
        spec = _SPECS.keep(data, _parse_workspace(data), len(data))
    return spec


def _parse_workspace(data: bytes) -> WorkspaceSpec:
    """The workspace in a file's bytes, validated without numpy."""
    try:
        # as a file read as text: UTF-8 without a BOM, line ends read as "\n"
        doc = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except UnicodeDecodeError as exc:
        raise WorkspaceError("/", f"cannot read file: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep to decode
        raise WorkspaceError("/", f"invalid JSON: {exc}")
    _expect(isinstance(doc, dict), "/", "top level must be an object")
    known = {"signature", "algebras", "matrices", "atlases", "options"}
    for key in doc:
        _expect(key in known, f"/{_segment(key)}", "unknown top-level key")

    sig_doc = doc.get("signature")
    _expect(isinstance(sig_doc, dict), "/signature", "missing or not an object")
    conns = sig_doc.get("connectives")
    _expect(isinstance(conns, list), "/signature/connectives", "missing or not an array")
    ops: Dict[str, int] = {}
    for i, c in enumerate(conns):
        ptr = f"/signature/connectives/{i}"
        _expect(isinstance(c, dict), ptr, "expected an object")
        _expect(isinstance(c.get("name"), str), f"{ptr}/name", "expected a string")
        _expect(
            # not isinstance: JSON's true would pass as the integer 1
            type(c.get("arity")) is int and c["arity"] >= 0,
            f"{ptr}/arity",
            "expected a nonnegative integer",
        )
        _expect(c["name"] not in ops, f"{ptr}/name", "duplicate connective")
        ops[c["name"]] = c["arity"]
    try:
        signature = Signature.of(ops)
    except ValueError as exc:
        raise WorkspaceError("/signature", str(exc))

    algebras: Dict[str, Tuple[List[str], Dict[str, List[int]]]] = {}
    indices: Dict[str, Dict[str, int]] = {}  # algebra name -> element index
    for name, adoc in _member(doc, "algebras", "", dict, {}).items():
        ptr = f"/algebras/{_segment(name)}"
        _expect(isinstance(adoc, dict), ptr, "expected an object")
        elements = adoc.get("elements")
        _expect(
            isinstance(elements, list) and all(isinstance(e, str) for e in elements),
            f"{ptr}/elements",
            "expected an array of strings",
        )
        operations = adoc.get("operations")
        _expect(isinstance(operations, dict), f"{ptr}/operations", "expected an object")
        tables: Dict[str, List[int]] = {}  # built into arrays on first use
        for op_name, arity in signature.operations:
            op_ptr = f"{ptr}/operations/{_segment(op_name)}"
            _expect(op_name in operations, op_ptr, "missing operation table")
            tables[op_name] = _table_entries(operations[op_name], arity, elements, op_ptr)
        for op_name in operations:
            _expect(
                op_name in signature,
                f"{ptr}/operations/{_segment(op_name)}",
                "operation not in signature",
            )
        # FiniteAlgebra's own checks, which the walk above leaves
        index = {e: i for i, e in enumerate(elements)}
        _expect(len(index) == len(elements), ptr, "duplicate element names")
        _expect(bool(elements), ptr, "empty carrier")
        algebras[name], indices[name] = (elements, tables), index

    matrices: Dict[str, Tuple[str, frozenset]] = {}
    for name, mdoc in _member(doc, "matrices", "", dict, {}).items():
        ptr = f"/matrices/{_segment(name)}"
        _expect(isinstance(mdoc, dict), ptr, "expected an object")
        aref = mdoc.get("algebra")
        _expect(
            isinstance(aref, str) and aref in algebras,
            f"{ptr}/algebra",
            f"unknown algebra {aref!r}",
        )
        des = _element_set(mdoc.get("designated"), indices[aref], f"{ptr}/designated")
        matrices[name] = aref, des

    atlases: Dict[str, Tuple[str, Tuple[frozenset, ...]]] = {}
    for name, adoc in _member(doc, "atlases", "", dict, {}).items():
        ptr = f"/atlases/{_segment(name)}"
        _expect(isinstance(adoc, dict), ptr, "expected an object")
        aref = adoc.get("algebra")
        _expect(
            isinstance(aref, str) and aref in algebras,
            f"{ptr}/algebra",
            f"unknown algebra {aref!r}",
        )
        filters_doc = adoc.get("filters")
        _expect(
            isinstance(filters_doc, list) and filters_doc,
            f"{ptr}/filters",
            "expected a nonempty array",
        )
        fams = tuple(
            _element_set(fdoc, indices[aref], f"{ptr}/filters/{fi}")
            for fi, fdoc in enumerate(filters_doc)
        )
        atlases[name] = aref, fams

    opts = _member(doc, "options", "", dict, {})
    caps_kwargs = {}
    for key in ("max_clone", "max_tuples", "memo_limit"):
        if key in opts:
            _expect(
                type(opts[key]) is int and opts[key] > 0,
                f"/options/{_segment(key)}",
                "expected a positive integer",
            )
            caps_kwargs[key] = opts[key]
    for key in opts:
        _expect(
            key in ("max_clone", "max_tuples", "memo_limit"),
            f"/options/{_segment(key)}",
            "unknown option",
        )
    return WorkspaceSpec(signature, ResourceCaps(**caps_kwargs), algebras, matrices, atlases)


# ---------------------------------------------------------------------------
# operand resolution

_PRESET_RE = re.compile(r"^(B2c?|L3|L3modal|G([2-9]|[1-9][0-9]+)|LC([2-9]|[1-9][0-9]+))$")


def resolve_preset(name: str) -> mat_mod.Matrix:
    from . import matrices as mat_mod

    m = _PRESET_RE.match(name)
    if not m:
        raise WorkspaceError("/preset", f"unknown preset {name!r}")
    if name.startswith("G"):
        return mat_mod.make_preset("Gn", int(name[1:]))
    if name.startswith("LC"):
        return mat_mod.make_preset("LCchain", int(name[2:]))
    return mat_mod.make_preset(name)


class _Shape(NamedTuple):
    """The operands a command takes: their kind, as its refusals name it, and
    how many, at least and at most (None: any number).  Every operand is an
    atlas, and presets and --matrix operands are also matrices; a "matrix"
    operand must be one."""

    kind: str  # "matrix", "atlas" or "matrix or atlas"
    least: int
    most: Optional[int]

    @property
    def options(self) -> Tuple[str, ...]:
        """The operand options its parser adds, each as the kind it names: none
        where it takes no operand, and its parser adds --file alone."""
        return ("preset", "matrix", "atlas") if self.most != 0 else ()


_ONE_MATRIX = _Shape("matrix", 1, 1)
_ONE_TARGET = _Shape("matrix or atlas", 1, 1)
_TWO_MATRICES = _Shape("matrix", 2, 2)
_TWO_ATLASES = _Shape("atlas", 2, 2)
_MATRICES = _Shape("matrix", 0, None)
_MATRIX_AT_MOST = _Shape("matrix", 0, 1)
_NO_OPERAND = _Shape("matrix", 0, 0)  # --file alone, for the workspace's caps
_NUMBERS = ("no", "one", "two")


@dataclass
class _Operands:
    """A command's operands in command-line order, checked against its shape:
    the atlases where its kind is "atlas", else the matrices, or the atlas where
    a "matrix or atlas" operand is not a matrix."""

    operands: list
    workspace: Optional[WorkspaceSpec]
    caps: ResourceCaps


def _gather_operands(args: argparse.Namespace) -> _Operands:
    """The command's operands, resolved in order, then checked against its
    shape: the first refusal that applies is raised."""
    workspace = load_spec(args.file) if args.file else None
    caps = workspace.caps if workspace else ResourceCaps()
    matrices: List[mat_mod.Matrix] = []
    atlases: List[mat_mod.Atlas] = []
    for kind, value in args.operands:
        if kind == "preset":
            m = resolve_preset(value)
            matrices.append(m)
            atlases.append(m.as_atlas())
        elif kind == "matrix":
            if workspace is None or value not in workspace.matrices:
                raise WorkspaceError("/matrices", f"unknown matrix {value!r}")
            matrices.append(workspace.matrices[value])
            atlases.append(workspace.matrices[value].as_atlas())
        else:
            if workspace is None or value not in workspace.atlases:
                raise WorkspaceError("/atlases", f"unknown atlas {value!r}")
            atlases.append(workspace.atlases[value])
    shape: _Shape = args.shape
    count, most = len(atlases), shape.most or 0  # every operand is an atlas
    number = f"{_NUMBERS[most]} {shape.kind} operand{'s' * (most > 1)}"
    if shape.least == shape.most and (count != most or shape.kind == "matrix" and len(matrices) != most):
        raise WorkspaceError("/", f"exactly {number} required")
    if shape.kind == "matrix" and len(matrices) < count:
        raise WorkspaceError("/", f"only {shape.kind} operands allowed")
    if shape.most is not None and count > most:
        raise WorkspaceError("/", f"at most {number} allowed")
    return _Operands(atlases if shape.kind == "atlas" else matrices or atlases, workspace, caps)


def _parse_assignment(text: str, alg: alg_mod.FiniteAlgebra) -> Dict[int, int]:
    out: Dict[int, int] = {}
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise WorkspaceError("/assign", f"bad binding {part!r} (want pN=element)")
        lhs, rhs = part.split("=", 1)
        lhs = lhs.strip()
        m = re.match(r"^p([1-9][0-9]*)$", lhs)
        if not m:
            raise WorkspaceError("/assign", f"bad variable {lhs!r}")
        index = int(m.group(1))
        if index in out:
            raise WorkspaceError("/assign", f"{lhs} is bound twice")
        try:
            out[index] = alg.element_index(rhs.strip())
        except KeyError as exc:
            raise WorkspaceError("/assign", exc.args[0]) from None
    return out


def _fmt_assignment(
    assignment: Optional[Tuple[Tuple[int, int], ...]], alg: alg_mod.FiniteAlgebra
) -> Optional[Dict[str, str]]:
    if assignment is None:
        return None
    return {f"p{v}": alg.elements[e] for v, e in assignment}


# ---------------------------------------------------------------------------
# report plumbing

REPORT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["command", "answer"],
    "properties": {
        "command": {"type": "string"},
        "answer": {"type": "string", "enum": ["yes", "no", "cap-exceeded", "info"]},
        "witness": {},
        "stats": {"type": "object"},
    },
    "additionalProperties": False,
}

_ANSWER_EXIT = {"yes": 0, "info": 0, "no": 1, "cap-exceeded": 3}


@dataclass
class Report:
    """A command's answer: its text lines, and for --json its witness and
    stats, which must be JSON data (rendered as they are)."""

    command: str
    answer: str  # yes | no | cap-exceeded | info
    lines: List[str]
    witness: Any = None
    stats: Optional[Dict[str, Any]] = None

    def exit_code(self) -> int:
        return _ANSWER_EXIT[self.answer]

    def render(self, as_json: bool) -> str:
        if as_json:
            doc: Dict[str, Any] = {"command": self.command, "answer": self.answer}
            if self.witness is not None:
                doc["witness"] = self.witness
            if self.stats:
                doc["stats"] = self.stats
            return json.dumps(doc, ensure_ascii=False, sort_keys=True)
        return "\n".join(self.lines)


def _decision_to_report(rep: decide.DecisionReport, command: str) -> Report:
    lines = [f"{command}: {rep.answer}"]
    witness: Any = None
    if rep.witness is not None:
        if isinstance(rep.witness, tuple):  # a counterexample sequent
            premises, concl = rep.witness
            seq_text = f"{', '.join(str(p) for p in premises)} => {concl}"
            lines.append(f"counterexample sequent: {seq_text}")
            witness = {
                "premises": [str(p) for p in premises],
                "conclusion": str(concl),
            }
        else:
            lines.append(f"witness: {rep.witness}")
            witness = str(rep.witness)
    return Report(command, rep.answer, lines, witness, rep.stats)


# ---------------------------------------------------------------------------
# commands


def _cmd_presets(args) -> Report:
    lines = ["available presets:"]
    lines.append("  B2       two-element Boolean matrix")
    lines.append("  B2c      B2 with constants ⊤ and ⊥")
    lines.append("  L3       three-valued Lukasiewicz matrix")
    lines.append("  L3modal  L3 with □ and ◇")
    lines.append("  G<n>     n-element chain matrix (e.g. G4)")
    lines.append("  LC<n>    chain presentation alias (e.g. LC5)")
    return Report("presets", "info", lines, ["B2", "B2c", "L3", "L3modal", "G<n>", "LC<n>"])


def _cmd_eval(args, ops: _Operands) -> Report:
    from . import algebra as alg_mod

    (m,) = ops.operands
    f = parse_formula(args.formula, m.algebra.signature)
    assignment = _parse_assignment(args.assign, m.algebra)
    try:
        value = alg_mod.evaluate_term(m.algebra, f, assignment)
    except alg_mod._Unbound as exc:
        raise WorkspaceError("/assign", exc.args[0]) from None
    name = m.algebra.elements[value]
    designated = value in m.designated
    answer = "yes" if designated else "no"
    lines = [f"eval: {f} = {name}" + (" (designated)" if designated else " (not designated)")]
    return Report("eval", answer, lines, name, {"designated": designated})


def _cmd_valid(args, ops: _Operands) -> Report:
    from . import matrices as mat_mod

    (target,) = ops.operands
    alg = target.algebra
    f = parse_formula(args.formula, alg.signature)
    res = mat_mod.is_valid(target, f, ops.caps)
    if res.valid:
        return Report("valid", "yes", [f"valid: {f}"])
    shown = _fmt_assignment(res.assignment, alg)
    lines = [f"invalid: {f}", f"refuting assignment: {shown}"]
    stats = {"assignment": shown, "filter_index": res.filter_index}
    return Report("valid", "no", lines, shown, stats)


def _cmd_conseq(args, ops: _Operands) -> Report:
    from . import matrices as mat_mod

    (target,) = ops.operands
    alg = target.algebra
    premises = [parse_formula(p, alg.signature) for p in args.premise]
    conclusion = parse_formula(args.formula, alg.signature)
    res = mat_mod.consequence(target, premises, conclusion, ops.caps)
    if res.holds:
        return Report("conseq", "yes", ["consequence holds"])
    shown = _fmt_assignment(res.assignment, alg)
    lines = ["consequence fails", f"separator: {shown} with filter index {res.filter_index}"]
    return Report(
        "conseq", "no", lines, shown, {"assignment": shown, "filter_index": res.filter_index}
    )


def _cmd_trivial(args, ops: _Operands) -> Report:
    from . import decide

    rep = decide.has_theorems(*ops.operands, ops.caps)
    out = _decision_to_report(rep, "trivial")
    if rep.answer == "no":
        out.lines = ["trivial: no theorems"]
    return out


def _cmd_compare(decision: str, args, ops: _Operands) -> Report:
    """The decide function named, on the command's two operands and its size."""
    from . import decide

    rep = getattr(decide, decision)(*ops.operands, ops.caps, args.size)
    return _decision_to_report(rep, args.path)


def _cmd_reps(args, ops: _Operands) -> Report:
    from . import lindenbaum

    (m,) = ops.operands
    reps = lindenbaum.representatives(m.algebra, args.n, ops.caps)
    lines = [f"representatives of {args.n}-variable formulas: {len(reps)}"]
    for tf in reps.entries:
        mark = "  [theorem]" if m.designated.issuperset(tf.table) else ""
        lines.append(f"  {tf.witness}{mark}")
    witness = [str(tf.witness) for tf in reps.entries]
    return Report("reps", "info", lines, witness, {"count": len(reps), "n": args.n})


def _cmd_free_algebra(args, ops: _Operands) -> Report:
    from . import lindenbaum

    # the representatives are the elements; no operation table is printed, so none is built
    (m,) = ops.operands
    reps = lindenbaum._free_elements(m.algebra, args.n, ops.caps).entries
    names = [str(tf.witness) for tf in reps]
    designated = sorted(str(tf.witness) for tf in reps if m.designated.issuperset(tf.table))
    lines = [
        f"free matrix algebra on {args.n} variables: {len(names)} elements",
        f"designated: {designated}",
    ]
    stats = {"size": len(names), "designated": designated, "elements": names}
    return Report("free-algebra", "info", lines, names, stats)


def _cmd_congruence(args, ops: _Operands) -> Report:
    from . import matrices as mat_mod

    (target,) = ops.operands
    cong = mat_mod.greatest_compatible_congruence(target)
    alg = target.algebra
    blocks = [[alg.elements[e] for e in block] for block in cong.blocks()]
    lines = ["greatest compatible congruence blocks:"]
    for block in blocks:
        lines.append("  {" + ", ".join(block) + "}")
    return Report("congruence", "info", lines, blocks, {"blocks": len(blocks)})


def _matrix_to_doc(m: mat_mod.Matrix, name: str) -> Dict[str, Any]:
    import numpy as np

    alg = m.algebra
    names = np.array(alg.elements, dtype=object)
    # the ellipsis keeps a constant's 0-d table an array, whose tolist() is
    # the bare element name
    operations = {n: names[alg.table(n), ...].tolist() for n, _ in alg.signature.operations}
    return {
        "signature": {
            "connectives": [
                {"name": n, "arity": a} for n, a in alg.signature.operations
            ]
        },
        "algebras": {
            name: {
                "elements": list(alg.elements),
                "operations": operations,
            }
        },
        "matrices": {
            name: {
                "algebra": name,
                "designated": [alg.elements[e] for e in sorted(m.designated)],
            }
        },
    }


def _cmd_combine(args, ops: _Operands) -> Report:
    from . import matrices as mat_mod

    m1, m2 = ops.operands
    combined = mat_mod.combine_matrices(args.kind, m1, m2)
    doc = _matrix_to_doc(combined, f"{args.kind}")
    text = json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2)
    return Report("combine", "info", [text], doc, {"kind": args.kind, "size": combined.algebra.size})


def _eq_signature(ops: _Operands) -> Signature:
    """The signature of the matrix operand, if any, else of the workspace."""
    if ops.operands:
        return ops.operands[0].algebra.signature
    if ops.workspace is not None:
        return ops.workspace.signature
    return BOOLEAN_SIGNATURE


def _eq_algebras(args, ops: _Operands) -> List[alg_mod.FiniteAlgebra]:
    algebras = [m.algebra for m in ops.operands]
    if ops.workspace is not None:
        for name in args.algebra:
            if name not in ops.workspace.algebras:
                raise WorkspaceError("/algebras", f"unknown algebra {name!r}")
            algebras.append(ops.workspace.algebras[name])
    elif args.algebra:
        raise WorkspaceError("/algebras", "--algebra needs --file")
    if not algebras:
        raise WorkspaceError("/", "at least one algebra operand required")
    return algebras


def _cmd_eq_conseq(args, ops: _Operands) -> Report:
    algebras = _eq_algebras(args, ops)
    sig = algebras[0].signature
    premises = [eqlogic.parse_equality(p, sig) for p in args.premise]
    goal = eqlogic.parse_equality(args.equality, sig)
    res = eqlogic.eq_consequence(args.mode, algebras, premises, goal, ops.caps)
    if res.holds:
        return Report("eq conseq", "yes", [f"eq conseq ({args.mode}): yes"])
    alg = algebras[res.algebra_index or 0]
    shown = _fmt_assignment(res.assignment, alg)
    lines = [
        f"eq conseq ({args.mode}): no",
        f"witness: algebra #{res.algebra_index}, assignment {shown}",
    ]
    return Report(
        "eq conseq",
        "no",
        lines,
        {"algebra_index": res.algebra_index, "assignment": shown},
        {"mode": args.mode},
    )


def _load_derivation(path: str, sig: Signature) -> Tuple[eqlogic.EDerivation, List[eqlogic.Equality]]:
    """A derivation file: {"system": str, "premises": [str], "steps": [{"equality":
    str, "rule": str, "refs": [int], "occurrences": [{"path": {"side": str, "at":
    [int]}, "ref": int}], "connective": str, "substitution": {pN: str}}]}, where
    a step's keys and the top-level lists may be left out."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise WorkspaceError("/", f"cannot read derivation: {exc}")
    _expect(isinstance(doc, dict), "/", "derivation must be an object")
    system = doc.get("system")
    _expect(system in eqlogic.SYSTEMS, "/system", f"unknown system {system!r}")
    premises = [eqlogic.parse_equality(p, sig) for p in _items(doc, "premises", "", str)]
    steps = []
    for i, sdoc in enumerate(_items(doc, "steps", "", dict)):
        ptr = f"/steps/{i}"
        eq = eqlogic.parse_equality(_member(sdoc, "equality", ptr, str, ""), sig)
        occurrences = []
        for j, odoc in enumerate(_items(sdoc, "occurrences", ptr, dict)):
            optr = f"{ptr}/occurrences/{j}"
            place = _member(odoc, "path", optr, dict)
            side = _member(place, "side", f"{optr}/path", str)
            at = _items(place, "at", f"{optr}/path", int, _REQUIRED)
            occurrences.append(((side, tuple(at)), _member(odoc, "ref", optr, int)))
        subst = None
        if "substitution" in sdoc:
            mapping = {}
            for key, text in _member(sdoc, "substitution", ptr, dict).items():
                m = re.match(r"^p([1-9][0-9]*)$", key)
                _expect(m is not None, f"{ptr}/substitution", f"bad variable {key!r}")
                key_ptr = f"{ptr}/substitution/{_segment(key)}"
                _expect(isinstance(text, str), key_ptr, "expected a string")
                mapping[int(m.group(1))] = parse_formula(text, sig)
            subst = Substitution.of(mapping)
        steps.append(
            eqlogic.Step(
                eq,
                _member(sdoc, "rule", ptr, str, ""),
                tuple(_items(sdoc, "refs", ptr, int)),
                tuple(occurrences),
                _member(sdoc, "connective", ptr, str, None),
                subst,
            )
        )
    return eqlogic.EDerivation(system, tuple(steps)), premises


def _cmd_eq_derive_check(args, ops: _Operands) -> Report:
    sig = _eq_signature(ops)
    deriv, premises = _load_derivation(args.derivation, sig)
    extra = [eqlogic.parse_equality(p, sig) for p in args.premise]
    res = eqlogic.check_e_derivation(deriv, premises + extra)
    if res.ok:
        return Report("eq derive-check", "yes", ["derivation checks"])
    lines = [f"derivation fails at step {res.step_index}: {res.reason}"]
    return Report(
        "eq derive-check",
        "no",
        lines,
        {"step": res.step_index, "reason": res.reason},
    )


def _cmd_eq_ground(args, ops: _Operands) -> Report:
    sig = _eq_signature(ops)
    premises = [eqlogic.parse_equality(p, sig) for p in args.premise]
    goal = eqlogic.parse_equality(args.equality, sig)
    ok, labels = eqlogic.decide_ground_equational(premises, goal)
    classes: Dict[int, List[str]] = {}
    for t, c in labels.items():  # each term after its arguments
        classes.setdefault(c, []).append(t._text or _printed(t))
    partition = [sorted(v) for _, v in sorted(classes.items())]
    if ok:
        return Report("eq ground", "yes", ["ground consequence: yes"], None, {"classes": partition})
    lines = ["ground consequence: no", f"closure classes: {partition}"]
    return Report("eq ground", "no", lines, partition, {"classes": partition})


def _cmd_eq_bridge(args, ops: _Operands) -> Report:
    sig = _eq_signature(ops)
    premises = [eqlogic.parse_equality(p, sig) for p in args.premise]
    goal = eqlogic.parse_equality(args.equality, sig)
    res = eqlogic.bridge_implicational(args.target, premises, goal, ops.caps)
    answer = "yes" if res.holds else "no"
    lines = [
        f"bridge {args.target}: {answer}",
        f"translated goal: {res.translated_goal}",
    ]
    return Report(
        "eq bridge",
        answer,
        lines,
        str(res.translated_goal),
        {"target": args.target, "premises": [str(p) for p in res.translated_premises]},
    )


def _int_formula(text: str) -> Formula:
    return intprover.expand_iff(parse_formula(text, CLASSICAL_SIGNATURE))


def _cmd_int_prove(args, ops: _Operands) -> Report:
    f = _int_formula(args.formula)
    tree = intprover.g3_prove((), f, ops.caps)
    if tree is None:
        return Report("int prove", "no", [f"unprovable: {f}"])
    if not intprover.check_proof(tree):
        raise AssertionError("proof failed re-verification")
    return Report(
        "int prove", "yes", [f"proved: {f}"], None, {"proof_size": tree.size()}
    )


def _cmd_int_relation(args, ops: _Operands) -> Report:
    f = _int_formula(args.formula)
    g = _int_formula(args.other)
    rel = intprover.int_relation(f, g, ops.caps)
    lines = [f"relation between {f} and {g}:"]
    for key in ("leq", "geq", "sim", "ll", "incomparable"):
        lines.append(f"  {key}: {rel[key]}")
    return Report("int relation", "info", lines, rel, rel)


def _cmd_int_rn(args) -> Report:
    index: Any = args.index
    if index != "omega":
        index = int(index)
    f = intprover.rn_power(index)
    return Report("int rn", "info", [f"ladder {args.index}: {f}"], str(f))


def _cmd_int_classify(args, ops: _Operands) -> Report:
    f = _int_formula(args.formula)
    cls = intprover.rn_classify(f, caps=ops.caps)
    if cls is None:
        return Report("int classify", "no", [f"no ladder class found for {f}"])
    return Report(
        "int classify", "info", [f"ladder class of {f}: {cls}"], cls, {"class": cls}
    )


def _cmd_int_glivenko(args, ops: _Operands) -> Report:
    f = parse_formula(args.formula, CLASSICAL_SIGNATURE)
    res = intprover.glivenko_check(f, ops.caps)
    answer = "yes" if res["agree"] else "no"
    lines = [
        f"classically valid: {res['classically_valid']}",
        f"double negation provable: {res['double_negation_provable']}",
        f"agree: {res['agree']}",
    ]
    return Report("int glivenko", answer, lines, res, res)


# ---------------------------------------------------------------------------
# argument parsing


# the size option of weq and incl (--n) and of atlas-incl and atlas-eq (--m)
_SIZE_N = ("--n", {"type": int, "dest": "size", "metavar": "N"})
_SIZE_M = ("--m", {"type": int, "dest": "size", "metavar": "M"})

# Every command, declared once: its path, its handler, its operand shape, and
# its own arguments as (name or flag, add_argument keywords), added in this
# order after --json, --file and the operand options its shape declares.
# run_command gathers a command's operands and checks them against its shape
# before it calls handler(args, operands); a command whose shape is None takes
# no --file, and its handler is called as handler(args).
_COMMANDS = (
    ("presets", _cmd_presets, None, ()),
    ("eval", _cmd_eval, _ONE_MATRIX, (("formula", {}), ("--assign", {"default": ""}))),
    ("valid", _cmd_valid, _ONE_TARGET, (("formula", {}),)),
    ("conseq", _cmd_conseq, _ONE_TARGET, (
        ("formula", {}), ("--premise", {"action": "append", "default": []}),
    )),
    ("trivial", _cmd_trivial, _ONE_MATRIX, ()),
    ("weq", functools.partial(_cmd_compare, "weak_equivalence"), _TWO_MATRICES, (_SIZE_N,)),
    ("incl", functools.partial(_cmd_compare, "theorem_inclusion"), _TWO_MATRICES, (_SIZE_N,)),
    ("atlas-incl", functools.partial(_cmd_compare, "atlas_inclusion"), _TWO_ATLASES, (_SIZE_M,)),
    ("atlas-eq", functools.partial(_cmd_compare, "atlas_equivalence"), _TWO_ATLASES, (_SIZE_M,)),
    ("reps", _cmd_reps, _ONE_MATRIX, (("--n", {"type": int, "default": 1}),)),
    ("free-algebra", _cmd_free_algebra, _ONE_MATRIX, (("--n", {"type": int, "default": 1}),)),
    ("congruence", _cmd_congruence, _ONE_TARGET, ()),
    ("combine", _cmd_combine, _TWO_MATRICES, (("kind", {"choices": COMBINE_KINDS}),)),
    ("eq conseq", _cmd_eq_conseq, _MATRICES, (
        ("equality", {}),
        ("--mode", {"choices": ("E", "EL"), "default": "E"}),
        ("--premise", {"action": "append", "default": []}),
        ("--algebra", {"action": "append", "default": []}),
    )),
    ("eq derive-check", _cmd_eq_derive_check, _MATRIX_AT_MOST, (
        ("derivation", {}), ("--premise", {"action": "append", "default": []}),
    )),
    ("eq ground", _cmd_eq_ground, _MATRIX_AT_MOST, (
        ("equality", {}), ("--premise", {"action": "append", "default": []}),
    )),
    ("eq bridge", _cmd_eq_bridge, _MATRIX_AT_MOST, (
        ("equality", {}),
        ("--target", {"choices": ("EB", "EH"), "required": True}),
        ("--premise", {"action": "append", "default": []}),
    )),
    ("int prove", _cmd_int_prove, _NO_OPERAND, (("formula", {}),)),
    ("int relation", _cmd_int_relation, _NO_OPERAND, (("formula", {}), ("other", {}))),
    ("int rn", _cmd_int_rn, None, (("index", {}),)),
    ("int classify", _cmd_int_classify, _NO_OPERAND, (("formula", {}),)),
    ("int glivenko", _cmd_int_glivenko, _NO_OPERAND, (("formula", {}),)),
)


def _add_arguments(
    parser: argparse.ArgumentParser, path: str, handler, shape: Optional[_Shape], arguments
) -> argparse.ArgumentParser:
    """Adds a command's arguments, from its _COMMANDS row, to its parser: --json,
    then --file and the operand options of its shape, if it has one, then its own."""
    parser.add_argument("--json", action="store_true")
    if shape is not None:
        parser.add_argument("--file")
        # one list of (kind, name) pairs keeps the operands in command-line order
        for kind in shape.options:
            parser.add_argument(
                f"--{kind}",
                action="append",
                dest="operands",
                metavar=kind.upper(),
                type=lambda value, kind=kind: (kind, value),
            )
    for flag, keywords in arguments:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(func=handler, path=path, shape=shape, operands=[])
    return parser


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The whole command-line parser, built once per process, for argv that
    names no command, asks for root or group help, or leaves arguments over."""
    p = argparse.ArgumentParser(prog="matlogic", description=__doc__)
    groups = {"": p.add_subparsers(dest="command")}
    for row in _COMMANDS:
        group, _, name = row[0].rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(group).add_subparsers(dest=f"{group}_command")
        _add_arguments(groups[group].add_parser(name), *row)
    indent = "\n" + " " * len("usage: matlogic ")  # wrapped as by 3.11 and 3.12, not 3.13
    p.usage = f"%(prog)s [-h]{indent}{{{','.join(groups[''].choices)}}}{indent}..."
    return p


# command path as argv words -> its _COMMANDS row
_ROWS = {tuple(row[0].split()): row for row in _COMMANDS}


@functools.lru_cache(maxsize=None)
def _command_parser(words: Tuple[str, ...]) -> argparse.ArgumentParser:
    """One command's parser, built on first use: the parser that the whole
    parser hands the command's arguments to, under the same prog."""
    return _add_arguments(argparse.ArgumentParser(prog=f"matlogic {' '.join(words)}"), *_ROWS[words])


def run_command(argv: Sequence[str]) -> Tuple[int, str]:
    """Execute one command line; returns (exit code, report text)."""
    try:
        return _answer(argv)
    finally:
        lang.sweep()  # once the command's own references are gone


def _answer(argv: Sequence[str]) -> Tuple[int, str]:
    argv = list(argv)
    words = next((w for w in (tuple(argv[:1]), tuple(argv[:2])) if w in _ROWS), None)
    # argparse writes help and usage errors itself, then exits
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            args, rest = None, argv
            if words:
                args, rest = _command_parser(words).parse_known_args(argv[len(words):])
            if rest:  # the whole parser reports what is left over, or parses argv
                args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code else 0), printed.getvalue().rstrip()
    func = getattr(args, "func", None)
    if func is None:
        return 2, _build_parser().format_usage().rstrip()
    try:
        # a command with an operand shape gets its checked operands
        report: Report = func(args) if args.shape is None else func(args, _gather_operands(args))
        text = report.render(args.json)
    except (WorkspaceError, ParseError, ValueError, KeyError) as exc:
        return 2, f"error: {exc}"
    except CapExceeded as exc:
        return 3, f"cap exceeded: {exc}"
    except MemoryError:
        return 3, "cap exceeded: out of memory"
    return report.exit_code(), text


def main() -> None:
    code, text = run_command(sys.argv[1:])
    if text:
        print(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
