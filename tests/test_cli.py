import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import matlogic
from matlogic import ResourceCaps, cli, combine_matrices, lang, make_preset
from matlogic.cli import (
    _COMMANDS,
    REPORT_SCHEMA,
    WorkspaceError,
    load_spec,
    run_command,
)

from conftest import (
    DERIV_E1_DOC,
    DERIV_E2S_DOC,
    EX_NONTR_DOC,
    EX_TR_DOC,
    replaced,
    settled_pool_size,
    write_workspace,
)

DATA = str(Path(__file__).parent / "data")
CORPUS_WS = str(Path(DATA) / "corpus_ws.json")
# recorded invocations, @DATA@ standing for DATA (test_cli_corpus replays them)
CORPUS = json.loads((Path(DATA) / "cli_corpus.json").read_text(encoding="utf-8"))

# help and usage-error texts recorded at an 80-column width
HELP_TEXTS = json.loads(
    (Path(__file__).parent / "data" / "cli_help.json").read_text(encoding="utf-8")
)


# proof search takes no stack frame per nesting level: 800 conjuncts, 1,000 negations
DEEP_THEOREM = " & ".join(f"p{i}" for i in range(1, 801)) + " -> p800"
DEEP_NON_THEOREM = "~" * 1000 + "p1"


class TestExitCodes:
    def test_valid_yes(self):
        code, _ = run_command(["valid", "--preset", "B2", "p1 | ~p1"])
        assert code == 0

    def test_valid_no_with_refuter(self):
        code, text = run_command(["valid", "--preset", "L3", "p1 | ~p1"])
        assert code == 1
        assert "1/2" in text

    def test_int_prove_peirce_unprovable(self):
        code, _ = run_command(["int", "prove", "((p1->p2)->p1)->p1"])
        assert code == 1

    def test_int_prove_identity(self):
        code, _ = run_command(["int", "prove", "p1->p1"])
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["eq", "conseq", "--preset", "B2", "--preset", "L3", "p1 <-> p1 ~ p1 -> p1"],
            ["eq", "conseq", "--preset", "B2c", "--preset", "L3", "⊤ ~ p1 -> p1"],
            ["eq", "conseq", "--mode", "EL", "--preset", "L3", "--preset", "B2", "p1 ~ p1"],
        ],
    )
    def test_eq_conseq_over_mixed_signatures_is_refused(self, argv):
        assert run_command(argv) == (2, "error: algebras must share a signature")

    def test_usage_error(self):
        code, _ = run_command(["valid", "--preset", "NOPE", "p1"])
        assert code == 2

    def test_parse_error(self):
        code, text = run_command(["valid", "--preset", "B2", "p1 ->"])
        assert code == 2
        assert "error" in text

    def test_help_text_is_returned(self, capsys):
        code, text = run_command(["valid", "--help"])
        assert code == 0
        assert text.startswith("usage: matlogic valid") and "--preset" in text
        assert capsys.readouterr() == ("", "")

    def test_usage_error_text_is_returned(self, capsys):
        code, text = run_command(["valid", "--bogus"])
        assert code == 2
        assert text.startswith("usage: matlogic valid") and "error:" in text
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "argv, exit_code, last_line",
        [
            (["valid", "--preset", "L3", "~" * 3000 + "p1"], 1, "refuting assignment: {'p1': '0'}"),
            (
                ["valid", "--preset", "L3", "(" * 3000 + "p1" + ")" * 3000],
                1,
                "refuting assignment: {'p1': '0'}",
            ),
            (["int", "prove", DEEP_THEOREM], 0, "proved: " + DEEP_THEOREM),
            (["int", "prove", DEEP_NON_THEOREM], 1, "unprovable: " + DEEP_NON_THEOREM),
            (["int", "classify", "~" * 3000 + "p1"], 0, "ladder class of " + "~" * 3000 + "p1: 3"),
            (["int", "classify", "~" * 3001 + "p1"], 0, "ladder class of " + "~" * 3001 + "p1: 1"),
            (
                ["eq", "ground", "~" * 3000 + "p1"],
                2,
                "error: unexpected end of input (at position 3002)",
            ),
            (["eq", "conseq", "--preset", "B2", "~" * 3000 + "p1 ~ p1"], 0, "eq conseq (E): yes"),
        ],
        ids=[
            "valid-neg",
            "valid-parens",
            "int-prove-conjunction",
            "int-prove-negation",
            "int-classify-even",
            "int-classify-odd",
            "eq-ground",
            "eq-conseq",
        ],
    )
    def test_deep_nesting_keeps_the_exit_code_contract(self, argv, exit_code, last_line):
        code, text = run_command(argv)
        assert code == exit_code
        assert text.splitlines()[-1] == last_line

    @pytest.mark.parametrize(
        "argv",
        [
            ["incl", "--preset", "L3", "--preset", "L3", "--n", "-1"],
            ["weq", "--preset", "L3", "--preset", "G3", "--n", "-1"],
            ["atlas-incl", "--preset", "L3", "--preset", "L3", "--m", "-2"],
            ["reps", "--preset", "L3", "--n", "-1"],
            ["free-algebra", "--preset", "B2c", "--n", "-1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_variable_count_is_an_input_error(self, argv):
        count = argv[-1]
        assert run_command(argv) == (
            2,
            f"error: the number of variables must be at least 0, got {count}",
        )

    @pytest.mark.parametrize("command", ["atlas-incl", "atlas-eq"])
    def test_no_formulas_over_zero_variables_separate_nothing(self, command):
        # L3 has no constants, so its 0-ary clone is empty
        argv = [command, "--preset", "L3", "--preset", "L3", "--m", "0"]
        assert run_command(argv) == (0, f"{command}: yes")
        code, text = run_command(argv + ["--json"])
        assert code == 0
        assert json.loads(text)["stats"]["representatives"] == 0

    @pytest.mark.parametrize(
        "argv, answer",
        [
            # B2 has no constants, so no formula is free of variables
            (
                ["--preset", "B2"],
                (2, "error: no 0-variable formulas: the free algebra would be empty"),
            ),
            (
                ["--preset", "B2c", "--json"],
                (
                    0,
                    '{"answer": "info", "command": "free-algebra", "stats": {"designated": ["⊤"], '
                    '"elements": ["⊤", "⊥"], "size": 2}, "witness": ["⊤", "⊥"]}',
                ),
            ),
        ],
        ids=["B2", "B2c"],
    )
    def test_free_algebra_over_zero_variables(self, argv, answer):
        assert run_command(["free-algebra", "--n", "0", *argv]) == answer

    @pytest.mark.parametrize("case", HELP_TEXTS, ids=lambda c: " ".join(c["argv"]) or "-")
    def test_help_and_usage_texts_are_unchanged(self, case, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):
            assert run_command(case["argv"]) == (case["exit"], case["text"])

    def test_every_command_has_pinned_help(self):
        pinned = {tuple(case["argv"]) for case in HELP_TEXTS}
        assert [path for path, *_ in _COMMANDS if (*path.split(), "--help") not in pinned] == []

    def test_successive_commands_share_no_operands(self):
        ground = ["eq", "ground", "p1 ~ p3"]
        assert run_command(ground + ["--premise", "p1 ~ p2", "--premise", "p2 ~ p3"])[0] == 0
        assert run_command(ground) == (1, "ground consequence: no\nclosure classes: [['p1'], ['p3']]")
        assert run_command(["valid", "--preset", "L3", "p1 | ~p1"])[0] == 1
        assert run_command(["valid", "--preset", "B2", "p1 | ~p1"]) == (0, "valid: p1 | ~p1")

    @pytest.mark.parametrize("argv", [["trivial", "--preset", "L3"], ["int", "prove", "p1 -> p1"]])
    def test_a_directory_named_by_file_exits_2(self, tmp_path, argv):
        assert run_command(argv + ["--file", str(tmp_path)]) == (
            2,
            f"error: /: cannot read file: [Errno 21] Is a directory: '{tmp_path}'",
        )

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["trivial", "--preset", "L3", "--file"], "error: /: invalid JSON: "),
            (["int", "prove", "p1 -> p1", "--file"], "error: /: invalid JSON: "),
            (["eq", "derive-check"], "error: /: cannot read derivation: "),
        ],
        ids=["trivial", "int-prove", "eq-derive-check"],
    )
    def test_json_nested_too_deep_to_decode_exits_2(self, tmp_path, argv, prefix):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, text = run_command(argv + [str(path)])
        # the rest of the message is the JSON decoder's own
        assert (code, text[: len(prefix)]) == (2, prefix)

    def test_running_out_of_memory_exits_3(self, monkeypatch):
        def rn_power(index):
            raise MemoryError
        monkeypatch.setattr(cli.intprover, "rn_power", rn_power)
        assert run_command(["int", "rn", "3"]) == (3, "cap exceeded: out of memory")

    def test_cap_exceeded_exit_3(self, tmp_path):
        doc = copy.deepcopy(EX_NONTR_DOC)
        doc["options"] = {"max_tuples": 2}
        ws = write_workspace(tmp_path / "ws.json", doc)
        code, text = run_command(
            ["valid", "--file", ws, "--matrix", "M", "p1 -> p1 -> p1 -> p1"]
        )
        assert code == 3

    def test_trivial_cap_exceeded(self, tmp_path):
        # M's one-variable clone holds more than one function
        doc = replaced(EX_NONTR_DOC, ("options",), {"max_clone": 1})
        ws = write_workspace(tmp_path / "ws.json", doc)
        argv = ["trivial", "--file", ws, "--matrix", "M"]
        assert run_command(argv) == (3, "trivial: cap-exceeded")
        assert json.loads(run_command(argv + ["--json"])[1])["stats"] == {
            "cap": "max_clone", "limit": 1, "n": 1,
        }


class TestWorkspace:
    def test_trivial_example_no_theorems(self, tmp_path):
        ws = write_workspace(tmp_path / "ex-tr.json", EX_TR_DOC)
        code, text = run_command(["trivial", "--file", ws, "--matrix", "M"])
        assert code == 1
        assert "no theorems" in text

    def test_nontrivial_example(self, tmp_path):
        ws = write_workspace(tmp_path / "ex-nontr.json", EX_NONTR_DOC)
        code, text = run_command(["trivial", "--file", ws, "--matrix", "M"])
        assert code == 0

    def test_schema_violation_reports_pointer(self, tmp_path):
        doc = copy.deepcopy(EX_TR_DOC)
        doc["matrices"]["M"]["designated"] = ["2"]
        ws = write_workspace(tmp_path / "bad.json", doc)
        with pytest.raises(WorkspaceError) as exc:
            load_spec(ws)
        assert "/matrices/M/designated/0" in str(exc.value)

    def test_filter_violation_reports_pointer(self, tmp_path):
        doc = copy.deepcopy(EX_NONTR_DOC)
        doc["atlases"] = {"T": {"algebra": "A", "filters": [["1"], ["2", "1"]]}}
        ws = write_workspace(tmp_path / "bad.json", doc)
        with pytest.raises(WorkspaceError) as exc:
            load_spec(ws)
        assert str(exc.value) == "/atlases/T/filters/1/0: '2' is not a carrier element"

    def test_dangling_algebra_reference(self, tmp_path):
        doc = copy.deepcopy(EX_TR_DOC)
        doc["matrices"]["M"]["algebra"] = "missing"
        ws = write_workspace(tmp_path / "bad.json", doc)
        with pytest.raises(WorkspaceError) as exc:
            load_spec(ws)
        assert "/matrices/M/algebra" in str(exc.value)

    def test_table_totality_violation(self, tmp_path):
        doc = copy.deepcopy(EX_TR_DOC)
        doc["algebras"]["A"]["operations"]["∨"] = [["0", "1/2"], ["1/2", "1/2"], ["1"]]
        ws = write_workspace(tmp_path / "bad.json", doc)
        with pytest.raises(WorkspaceError) as exc:
            load_spec(ws)
        assert "/algebras/A/operations/∨" in str(exc.value)

    def test_unknown_operation_rejected(self, tmp_path):
        doc = copy.deepcopy(EX_TR_DOC)
        doc["algebras"]["A"]["operations"]["+"] = "0"
        ws = write_workspace(tmp_path / "bad.json", doc)
        with pytest.raises(WorkspaceError):
            load_spec(ws)

    def test_cli_returns_2_on_workspace_error(self, tmp_path):
        doc = copy.deepcopy(EX_TR_DOC)
        doc["matrices"]["M"]["algebra"] = "missing"
        ws = write_workspace(tmp_path / "bad.json", doc)
        code, text = run_command(["trivial", "--file", ws, "--matrix", "M"])
        assert code == 2

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("algebras",), [1], "/algebras: expected an object"),
            (("matrices",), [], "/matrices: expected an object"),
            (("atlases",), None, "/atlases: expected an object"),
            (("options",), [], "/options: expected an object"),
            (("matrices", "M", "algebra"), ["A"], "/matrices/M/algebra: unknown algebra ['A']"),
            (("atlases", "T", "algebra"), {}, "/atlases/T/algebra: unknown algebra {}"),
            (
                ("signature", "connectives", 0, "arity"),
                True,
                "/signature/connectives/0/arity: expected a nonnegative integer",
            ),
            (("options", "max_tuples"), True, "/options/max_tuples: expected a positive integer"),
        ],
    )
    def test_malformed_workspace_exits_2_with_a_pointer(self, tmp_path, path, value, message):
        doc = copy.deepcopy(EX_NONTR_DOC)
        doc["atlases"] = {"T": {"algebra": "A", "filters": [["1"]]}}
        doc["options"] = {"max_tuples": 100}
        ws = write_workspace(tmp_path / "bad.json", replaced(doc, path, value))
        assert run_command(["trivial", "--file", ws, "--matrix", "M"]) == (2, f"error: {message}")

    @pytest.mark.parametrize(
        "encode, message",
        [
            (
                lambda text: text.encode("utf-8-sig"),
                "/: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
            ),
            (
                lambda text: text.encode("utf-8").replace(b"1/2", b"1/\xff"),
                "/: cannot read file: 'utf-8' codec can't decode byte 0xff in position 129: invalid start byte",
            ),
            (
                lambda text: text.encode("utf-16"),
                "/: cannot read file: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
        ],
        ids=["utf-8-bom", "invalid-utf-8", "utf-16"],
    )
    def test_a_file_not_in_plain_utf8_exits_2(self, tmp_path, encode, message):
        # json.loads, given bytes, guesses their encoding and would load the
        # BOM and UTF-16 files
        ws = tmp_path / "ws.json"
        ws.write_bytes(encode(json.dumps(EX_NONTR_DOC, ensure_ascii=False)))
        assert run_command(["trivial", "--file", str(ws), "--matrix", "M"]) == (2, f"error: {message}")

    @pytest.mark.parametrize(
        "algebra, connective, pointer",
        [
            ("a/b", "¬", "/algebras/a~1b/operations/¬/1"),
            ("a~b", "n/t", "/algebras/a~0b/operations/n~1t/1"),
        ],
    )
    def test_pointer_segments_escape_slash_and_tilde(self, tmp_path, algebra, connective, pointer):
        # RFC 6901: within a segment, "~" is written "~0" and "/" "~1"
        doc = {
            "signature": {"connectives": [{"name": connective, "arity": 1}]},
            "algebras": {algebra: {"elements": ["0", "1"], "operations": {connective: ["1", "2"]}}},
            "matrices": {"M": {"algebra": algebra, "designated": ["1"]}},
        }
        ws = write_workspace(tmp_path / "bad.json", doc)
        assert run_command(["valid", "--file", ws, "--matrix", "M", "p1"]) == (
            2,
            f"error: {pointer}: unknown element '2'",
        )


class TestDerivations:
    def test_e1_derivation_checks(self, tmp_path):
        path = write_workspace(tmp_path / "d.json", DERIV_E1_DOC)
        assert run_command(["eq", "derive-check", path]) == (0, "derivation checks")

    def test_a_derivation_not_in_utf8_exits_2(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_bytes(json.dumps(DERIV_E1_DOC).encode("utf-16"))
        assert run_command(["eq", "derive-check", str(path)]) == (
            2,
            "error: /: cannot read derivation: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte",
        )

    def test_e1_derivation_fails_at_a_named_step(self, tmp_path):
        doc = replaced(DERIV_E1_DOC, ("steps", 3, "equality"), "p1 ~ p3")
        path = write_workspace(tmp_path / "d.json", doc)
        assert run_command(["eq", "derive-check", path, "--json"]) == (
            1,
            '{"answer": "no", "command": "eq derive-check", '
            '"witness": {"reason": "sym conclusion is not the reversal", "step": 3}}',
        )

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("steps", 3, "occurrences", 0), "l", "/steps/3/occurrences/0: expected an object"),
            (("premises",), "p1 ~ p2", "/premises: expected an array"),
            (("steps", 0, "equality"), ["p1 ~ p2"], "/steps/0/equality: expected a string"),
            (("steps", 4, "substitution"), ["p4"], "/steps/4/substitution: expected an object"),
            (("steps", 2, "rule"), ["axiom"], "/steps/2/rule: expected a string"),
            (("steps", 2, "connective"), ["∧"], "/steps/2/connective: expected a string"),
            (
                ("steps", 3, "occurrences", 1, "path", "at"),
                1,
                "/steps/3/occurrences/1/path/at: expected an array",
            ),
        ],
        ids=["occurrence", "premises", "equality", "substitution", "rule", "connective", "at"],
    )
    def test_malformed_derivation_exits_2_with_a_pointer(self, tmp_path, path, value, message):
        file = write_workspace(tmp_path / "d.json", replaced(DERIV_E2S_DOC, path, value))
        assert run_command(["eq", "derive-check", file]) == (2, f"error: {message}")


@pytest.fixture
def empty_memo():
    """The workspace memo emptied before and after the test."""
    cli._SPECS.clear()
    yield cli._SPECS
    cli._SPECS.clear()


class TestWorkspaceMemo:
    def test_the_same_bytes_are_parsed_once(self, tmp_path, monkeypatch, empty_memo):
        walks = []
        walk = cli._table_entries
        monkeypatch.setattr(cli, "_table_entries", lambda *args: walks.append(args) or walk(*args))
        first = write_workspace(tmp_path / "a.json", EX_NONTR_DOC)
        spec = load_spec(first)
        assert len(walks) == 2  # each table walked once, at validation
        assert spec._algebras["A"][1] == {"→": [2, 2, 2, 0, 2, 2, 0, 1, 2], "0": [0]}
        walks.clear()
        # the algebras are built from the kept entries, without a second walk
        assert spec.algebras["A"].tables["→"].tolist() == [[2, 2, 2], [0, 2, 2], [0, 1, 2]]
        assert walks == []
        argv = ["trivial", "--file", first, "--matrix", "M"]
        for _ in range(2):
            assert run_command(argv) == (0, "trivial: yes\nwitness: p1 -> p1")
        # the spec is a function of the bytes, whatever the path
        assert load_spec(write_workspace(tmp_path / "b.json", EX_NONTR_DOC)) is load_spec(first)
        assert walks == []

    def test_new_bytes_at_the_same_path_are_parsed_again(self, tmp_path, empty_memo):
        ws = tmp_path / "ws.json"
        argv = ["trivial", "--file", str(ws), "--matrix", "M"]
        write_workspace(ws, EX_NONTR_DOC)
        assert run_command(argv) == (0, "trivial: yes\nwitness: p1 -> p1")
        write_workspace(ws, EX_TR_DOC)
        assert run_command(argv) == (1, "trivial: no theorems")
        assert len(empty_memo) == 2

    def test_a_failing_file_is_not_kept(self, tmp_path, empty_memo):
        ws = write_workspace(tmp_path / "bad.json", replaced(EX_TR_DOC, ("matrices", "M", "algebra"), "B"))
        for _ in range(2):
            with pytest.raises(WorkspaceError) as exc:
                load_spec(ws)
            assert str(exc.value) == "/matrices/M/algebra: unknown algebra 'B'"
            assert empty_memo == {}

    def test_the_byte_bound_evicts_the_least_recently_used(self, tmp_path, monkeypatch, empty_memo):
        docs = [replaced(EX_NONTR_DOC, ("options",), {"max_tuples": 10 + i}) for i in range(3)]
        a, b, c = (write_workspace(tmp_path / f"{i}.json", doc) for i, doc in enumerate(docs))
        data = {path: Path(path).read_bytes() for path in (a, b, c)}
        monkeypatch.setattr(cli._SPECS, "budget", 2 * len(data[a]))
        for path in (a, b, a, c):
            load_spec(path)
        assert list(empty_memo) == [data[a], data[c]]
        big = tmp_path / "big.json"
        big.write_bytes(data[b] + b" " * (len(data[b]) + 1))
        assert load_spec(str(big)).caps.max_tuples == 11
        assert list(empty_memo) == [data[a], data[c]]

    def test_a_kept_spec_cannot_be_changed(self, tmp_path, empty_memo):
        doc = replaced(EX_NONTR_DOC, ("atlases",), {"T": {"algebra": "A", "filters": [["1"]]}})
        spec = load_spec(write_workspace(tmp_path / "ws.json", doc))
        for mapping in (spec.algebras, spec.matrices, spec.atlases):
            with pytest.raises(TypeError):
                mapping["X"] = next(iter(mapping.values()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.caps = ResourceCaps()


class TestJsonReports:
    COMMANDS = [
        ["valid", "--preset", "L3", "--json", "p1 | ~p1"],
        ["valid", "--preset", "B2", "--json", "p1 | ~p1"],
        ["conseq", "--preset", "B2", "--json", "p2", "--premise", "p1"],
        ["trivial", "--preset", "L3", "--json"],
        ["weq", "--preset", "L3", "--preset", "L3", "--json"],
        ["reps", "--preset", "L3", "--n", "1", "--json"],
        ["congruence", "--preset", "B2", "--json"],
        ["int", "prove", "--json", "p1 -> p1"],
        ["int", "classify", "--json", "~~p1"],
        ["int", "glivenko", "--json", "p1 | ~p1"],
        ["eq", "ground", "--json", "p1 ~ p2", "--premise", "p1 ~ p2"],
        ["eq", "bridge", "--json", "--target", "EB", "p1 ~ p1"],
        ["presets", "--json"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a[:2]))
    def test_schema_conformance(self, argv):
        _, text = run_command(argv)
        doc = json.loads(text)
        jsonschema.validate(doc, REPORT_SCHEMA)

    def test_deterministic_output(self):
        argv = ["valid", "--preset", "L3", "--json", "p1 | ~p1"]
        first = run_command(argv)
        second = run_command(argv)
        assert first == second

    def test_deterministic_workspace_output(self, tmp_path):
        ws = write_workspace(tmp_path / "ex.json", EX_NONTR_DOC)
        argv = ["reps", "--file", ws, "--matrix", "M", "--n", "1", "--json"]
        assert run_command(argv) == run_command(argv)


class TestOperands:
    @pytest.mark.parametrize(
        "argv",
        [
            ["valid", "--preset=L3", "p1 -> p1"],
            ["valid", "--pres", "L3", "p1 -> p1"],
        ],
    )
    def test_option_spellings_argparse_accepts(self, argv):
        assert run_command(argv) == (0, "valid: p1 -> p1")

    def test_eval(self):
        code, text = run_command(
            ["eval", "--preset", "L3", "p1 -> p2", "--assign", "p1=1/2,p2=0"]
        )
        assert code == 1
        assert "1/2" in text

    @pytest.mark.parametrize("assign", ["p1=0,p1=1", "p1=1, p2=0 ,p1 =1"])
    def test_eval_refuses_a_variable_bound_twice(self, assign):
        argv = ["eval", "--preset", "B2", "--assign", assign, "p1"]
        assert run_command(argv) == (2, "error: /assign: p1 is bound twice")

    @pytest.mark.parametrize(
        "assign, message",
        [
            ("p1=0", "assignment missing variable p2"),
            ("p1=5", "unknown element '5'"),
        ],
    )
    def test_eval_names_a_bad_assignment_with_a_pointer(self, assign, message):
        argv = ["eval", "--preset", "B2", "--assign", assign, "p1 & p2"]
        assert run_command(argv) == (2, f"error: /assign: {message}")

    @pytest.mark.parametrize(
        "target, message",
        [
            ("EB", "connective 'f'/1 not supported by B2c"),
            ("EH", "connective 'f'/1 not supported by the prover"),
        ],
    )
    def test_eq_bridge_names_a_connective_outside_the_target(self, tmp_path, target, message):
        doc = {
            "signature": {"connectives": [{"name": "f", "arity": 1}]},
            "algebras": {"A": {"elements": ["0", "1"], "operations": {"f": ["1", "0"]}}},
        }
        ws = write_workspace(tmp_path / "ws.json", doc)
        argv = ["eq", "bridge", "--target", target, "--file", ws, "f(p1) ~ p1"]
        assert run_command(argv) == (2, f"error: {message}")

    def test_combine_roundtrips_through_workspace(self, tmp_path):
        code, text = run_command(
            ["combine", "--preset", "L3", "--preset", "L3", "product", "--json"]
        )
        assert code == 0
        doc = json.loads(text)
        # emitted document loads back as a workspace
        ws = tmp_path / "combined.json"
        ws.write_text(json.dumps(doc["witness"]), encoding="utf-8")
        spec = load_spec(str(ws))
        assert spec.matrices["product"].algebra.size == 9

    def test_combine_with_constants_roundtrips(self, tmp_path):
        code, text = run_command(
            ["combine", "--preset", "B2c", "--preset", "B2c", "product", "--json"]
        )
        assert code == 0
        ws = tmp_path / "combined.json"
        ws.write_text(json.dumps(json.loads(text)["witness"]), encoding="utf-8")
        b2c = make_preset("B2c")
        want = combine_matrices("product", b2c, b2c)
        got = load_spec(str(ws)).matrices["product"]
        assert got.algebra.same_tables(want.algebra)
        assert got.designated == want.designated

    def test_free_algebra(self):
        code, text = run_command(["free-algebra", "--preset", "B2c", "--n", "1"])
        assert code == 0
        assert "4 elements" in text

    def test_reps_on_a_large_chain(self):
        code, text = run_command(["reps", "--preset", "G1000", "--n", "1", "--json"])
        assert code == 0
        assert json.loads(text)["stats"] == {"count": 6, "n": 1}

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["valid", "--matrix", "H", "--atlas", "T", "p1 -> p1"], "one matrix or atlas"),
            (["valid", "--atlas", "T", "--matrix", "H", "p1 -> p1"], "one matrix or atlas"),
            (
                ["conseq", "--matrix", "H", "--atlas", "T", "p1", "--premise", "p1"],
                "one matrix or atlas",
            ),
            (["congruence", "--matrix", "R", "--atlas", "T"], "one matrix or atlas"),
            (["eval", "--matrix", "H", "--atlas", "T", "p1"], "one matrix"),
            (["trivial", "--matrix", "H", "--atlas", "T"], "one matrix"),
            (["reps", "--atlas", "T", "--matrix", "H"], "one matrix"),
            (["free-algebra", "--matrix", "H", "--atlas", "T"], "one matrix"),
            (["weq", "--matrix", "M", "--matrix", "H", "--atlas", "T"], "two matrix"),
            (["incl", "--matrix", "M", "--atlas", "T", "--matrix", "H"], "two matrix"),
            (
                ["combine", "--matrix", "M", "--matrix", "H", "--atlas", "S", "product"],
                "two matrix",
            ),
        ],
        ids=lambda a: " ".join(a[:2]) if isinstance(a, list) else None,
    )
    def test_a_surplus_operand_of_the_other_kind_is_refused(self, argv, kind):
        # every operand counts, whether it names a matrix or an atlas
        plural = "s" if kind.startswith("two") else ""
        want = (2, f"error: /: exactly {kind} operand{plural} required")
        assert run_command([*argv, "--file", CORPUS_WS]) == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["int", "prove", "p1 -> p1", "--preset", "L3"],
            ["int", "prove", "p1 -> p1", "--atlas", "T"],
            ["int", "relation", "p1", "~~p1", "--matrix", "M"],
            ["int", "classify", "p1 | ~p1", "--preset", "B2", "--atlas", "S"],
            ["int", "glivenko", "p1 | ~p1", "--atlas", "T"],
        ],
        ids=lambda a: " ".join(a[:2] + [w for w in a if w.startswith("--")]),
    )
    def test_int_commands_refuse_every_operand(self, argv):
        # they read --file for its caps alone
        want = (2, "error: /: no matrix or atlas operand allowed")
        assert run_command([*argv, "--file", CORPUS_WS]) == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["eq", "conseq", "p1 -> ~p1 ~ ~p1", "--atlas", "T"],
            ["eq", "conseq", "p1 -> ~p1 ~ ~p1", "--matrix", "M", "--atlas", "T"],
            ["eq", "conseq", "p1 -> ~p1 ~ ~p1", "--atlas", "S", "--algebra", "A"],
            ["eq", "ground", "p1 ~ p1", "--atlas", "T"],
            ["eq", "bridge", "--target", "EB", "p1 ~ p1", "--atlas", "S"],
            ["eq", "derive-check", "@DERIVATION@", "--atlas", "T"],
        ],
        ids=lambda a: " ".join(a[:2] + [w for w in a if w.startswith("--")]),
    )
    def test_eq_commands_refuse_an_atlas_that_is_not_a_matrix(self, tmp_path, argv):
        path = write_workspace(tmp_path / "d.json", DERIV_E1_DOC)
        argv = [path if a == "@DERIVATION@" else a for a in argv]
        want = (2, "error: /: only matrix operands allowed")
        assert run_command([*argv, "--file", CORPUS_WS]) == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["eq", "ground", "p1 ~ p1", "--matrix", "M", "--matrix", "R"],
            ["eq", "bridge", "--target", "EH", "p1 ~ p1", "--preset", "B2", "--matrix", "M"],
            ["eq", "derive-check", "@DERIVATION@", "--preset", "L3", "--preset", "L3"],
        ],
        ids=lambda a: " ".join(a[:2]),
    )
    def test_eq_commands_that_read_a_signature_take_one_matrix_at_most(self, tmp_path, argv):
        path = write_workspace(tmp_path / "d.json", DERIV_E1_DOC)
        argv = [path if a == "@DERIVATION@" else a for a in argv]
        want = (2, "error: /: at most one matrix operand allowed")
        assert run_command([*argv, "--file", CORPUS_WS]) == want

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["int", "prove", "p1 -> p1"], (0, "proved: p1 -> p1")),
            (["eq", "ground", "p1 ~ p1", "--matrix", "M"], (0, "ground consequence: yes")),
            (
                ["eq", "conseq", "p1 -> ~p1 ~ ~p1", "--matrix", "M", "--matrix", "R"],
                (1, "eq conseq (E): no\nwitness: algebra #0, assignment {'p1': '1/2'}"),
            ),
        ],
        ids=lambda a: " ".join(a[:2]) if isinstance(a, list) else None,
    )
    def test_eq_and_int_commands_keep_the_operands_they_read(self, argv, want):
        assert run_command([*argv, "--file", CORPUS_WS]) == want

    def test_atlas_operand(self, tmp_path):
        doc = copy.deepcopy(EX_NONTR_DOC)
        doc["atlases"] = {"T": {"algebra": "A", "filters": [["1"], ["1/2", "1"]]}}
        ws = write_workspace(tmp_path / "ws.json", doc)
        code, _ = run_command(
            ["conseq", "--file", ws, "--atlas", "T", "p1", "--premise", "p1"]
        )
        assert code == 0

    def test_atlas_incl(self, tmp_path):
        # three-valued Lukasiewicz negation and arrow: the filter {1/2, 1} is
        # not closed under detachment, so the two-filter atlas derives less
        lk = {
            "signature": {
                "connectives": [{"name": "¬", "arity": 1}, {"name": "→", "arity": 2}]
            },
            "algebras": {
                "A": {
                    "elements": ["0", "1/2", "1"],
                    "operations": {
                        "¬": ["1", "1/2", "0"],
                        "→": [["1", "1", "1"], ["1/2", "1", "1"], ["0", "1/2", "1"]],
                    },
                }
            },
            "atlases": {
                "S": {"algebra": "A", "filters": [["1"]]},
                "T": {"algebra": "A", "filters": [["1"], ["1/2", "1"]]},
            },
        }
        ws = write_workspace(tmp_path / "ws.json", lk)
        code, _ = run_command(["atlas-incl", "--file", ws, "--atlas", "T", "--atlas", "S"])
        assert code == 0
        code, text = run_command(
            ["atlas-incl", "--file", ws, "--atlas", "S", "--atlas", "T"]
        )
        assert code == 1
        assert "counterexample sequent" in text


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eq", "ground", "p81 & p82 ~ p83 & p82", "--premise", "p81 ~ p83"], 0),
        (["int", "prove", "(p81 -> p82) -> ~~p81 -> ~~p82"], 0),
        (["valid", "--preset", "L3", "p81 | ~p81"], 1),
        (["eq", "ground", "p81 ~ p82", "--premise", "p81 ~ p83", "--premise", "p83 & (p82"], 2),
    ],
)
def test_a_command_leaves_the_intern_pool_as_it_found_it(argv, code):
    before = settled_pool_size()
    assert run_command(argv)[0] == code
    assert len(lang._app_pool) == before


# answers one command line in a fresh interpreter and prints its exit code,
# its report and whether numpy was imported
_FRESH = """
import json, sys
from matlogic.cli import run_command
code, text = run_command(json.loads(sys.argv[1]))
print(json.dumps([code, text, "numpy" in sys.modules]))
"""


# answers several command lines in a fresh interpreter whose recursion limit
# is far below their nesting depth, and prints each exit code and report
_SHALLOW = """
import json, sys
from matlogic.cli import run_command
sys.setrecursionlimit(120)
print(json.dumps([run_command(argv) for argv in json.loads(sys.argv[1])]))
"""


def _fresh(argv, script=_FRESH):
    src = str(Path(matlogic.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["int", "prove", "((p1 -> p2) -> p1) -> p1"], 1),
        (["int", "classify", "~~p2 -> p2"], 0),
        (["int", "glivenko", "((p1 -> p2) -> p1) -> p1"], 0),
        (["int", "relation", "p1", "p1 | p2"], 0),
        (["int", "rn", "5"], 0),
        (["eq", "ground", "~p1 ~ ~p3", "--premise", "p1 ~ p2", "--premise", "p2 ~ p3"], 0),
        (["eq", "ground", "p1 & p2 ~ p2 & p1"], 1),
        (["eq", "bridge", "p1 & p2 ~ p2 & p1", "--target", "EH"], 0),
        (["int", "prove", "--file", CORPUS_WS, "p1 -> p1"], 0),
        (["eq", "ground", "--file", CORPUS_WS, "p1 ~ p1"], 0),
    ],
)
def test_symbolic_commands_do_not_import_numpy(argv, code):
    got = _fresh(argv)
    assert got == [code, run_command(argv)[1], False]


def test_symbolic_commands_validate_the_whole_file_without_numpy(tmp_path):
    doc = replaced(EX_NONTR_DOC, ("algebras", "A", "operations", "→", 2, 1), "2")
    argv = ["int", "prove", "--file", write_workspace(tmp_path / "bad.json", doc), "p1 -> p1"]
    assert _fresh(argv) == [2, "error: /algebras/A/operations/→/2/1: unknown element '2'", False]


def test_deep_proof_search_ignores_the_recursion_limit():
    argvs = [["int", "prove", DEEP_THEOREM], ["int", "prove", DEEP_NON_THEOREM]]
    assert _fresh(argvs, _SHALLOW) == [
        [0, "proved: " + DEEP_THEOREM],
        [1, "unprovable: " + DEEP_NON_THEOREM],
    ]


def test_each_command_parser_answers_as_the_whole_parser(monkeypatch):
    # the reference sends every argv through the whole parser tree
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [[a.replace("@DATA@", DATA) for a in case["argv"]] for case in CORPUS]
    argvs += [case["argv"] for case in HELP_TEXTS]
    with monkeypatch.context() as whole:
        whole.setattr(cli, "_ROWS", {})
        reference = [run_command(argv) for argv in argvs]
    assert [run_command(argv) for argv in argvs] == reference


# answers one command line in a fresh interpreter and prints its exit code,
# how often the whole parser was built and how many command parsers were
_PARSERS = """
import json, sys
from matlogic import cli
code, _ = cli.run_command(json.loads(sys.argv[1]))
print(json.dumps([code, cli._build_parser.cache_info().misses, cli._command_parser.cache_info().misses]))
"""


@pytest.mark.parametrize(
    "argv, built",
    [
        (["int", "prove", "p1 -> p1"], [0, 0, 1]),
        (["valid", "--preset", "G4", "p1 -> p1"], [0, 0, 1]),
        (["valid", "--preset", "G4", "p1", "p2"], [2, 1, 1]),
        (["eq", "--help"], [0, 1, 0]),
    ],
)
def test_a_one_shot_command_builds_its_own_parser_alone(argv, built):
    assert _fresh(argv, _PARSERS) == built


def test_matrix_commands_still_import_numpy():
    assert _fresh(["valid", "--preset", "B2", "p1 | ~p1"]) == [0, "valid: p1 | ~p1", True]
