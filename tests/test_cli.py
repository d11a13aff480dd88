import codecs
import csv
import dataclasses
import errno
import gc
import importlib
import inspect
import json
import random
import shutil
import stat
import sys
import unicodedata
import weakref
from pathlib import Path

import pytest

import grcvalency.cli as cli
import grcvalency.lexicon as lexicon_module
from grcvalency import Lexicon, __version__, extract_entries, parse_treebank_file, read_lexicon
from grcvalency.casestudy import (
    BASELINE, DEFAULT_EPIC_WORKS, FORMULAIC, OUTPUT_NAMES, CaseStudyConfig,
)
from grcvalency.cli import main
from grcvalency.frames import write_lexicon
from grcvalency.semantics import centroid_similarities
from grcvalency.stats import summarize

import synthetic_case
from conftest import CORPUS_DIR, DATA_DIR, GOLDEN_LEXICON, MANIFEST_FILE


@pytest.fixture()
def extracted(tmp_path):
    out = tmp_path / "lexicon.tsv"
    code = main(
        [
            "extract",
            str(CORPUS_DIR),
            "--manifest",
            str(MANIFEST_FILE),
            "-o",
            str(out),
        ]
    )
    assert code == 0
    return out


def test_extract_reproduces_golden_lexicon(extracted):
    assert extracted.read_bytes() == GOLDEN_LEXICON.read_bytes()


def test_extract_writes_report_and_manifest(extracted):
    report = extracted.with_name(extracted.name + ".report.tsv")
    assert report.read_text(encoding="utf-8").splitlines()[0] == "file\tsentence_id\tkind\tdetail"
    manifest = json.loads(
        extracted.with_name(extracted.name + ".manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["command"] == "extract"
    assert manifest["tool_version"] == __version__
    assert len(manifest["inputs"]) == 4


def _open_mode(directory):
    probe = directory / "probe"
    probe.write_bytes(b"")
    mode = stat.S_IMODE(probe.stat().st_mode)
    probe.unlink()
    return mode


def test_extract_lexicon_mode_matches_report(tmp_path, extracted):
    # every output is written atomically and gets the mode open() would give
    mode = _open_mode(tmp_path)
    for suffix in ("", ".report.tsv", ".manifest.json"):
        assert stat.S_IMODE(extracted.with_name(extracted.name + suffix).stat().st_mode) == mode
    case_dir = tmp_path / "case"
    case_dir.mkdir()
    assert main(["casestudy", "--config", str(_write_case_files(case_dir))]) == 0
    outputs = sorted((case_dir / "out").iterdir())
    assert [path.name for path in outputs] == [
        "fig2_boxplot.csv", "manifest.json", "report.tsv", "run.log", "table5.tsv", "table6.tsv",
    ]
    assert all(stat.S_IMODE(path.stat().st_mode) == mode for path in outputs)


def test_extract_is_idempotent(tmp_path, extracted):
    manifest_path = extracted.with_name(extracted.name + ".manifest.json")
    first_lexicon = extracted.read_bytes()
    first_manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert (
        main(["extract", str(CORPUS_DIR), "--manifest", str(MANIFEST_FILE), "-o", str(extracted)])
        == 0
    )
    assert extracted.read_bytes() == first_lexicon
    second_manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    first_manifest.pop("timestamp")
    second_manifest.pop("timestamp")
    assert first_manifest == second_manifest


def test_extract_empty_directory(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    out = tmp_path / "lex.tsv"
    assert main(["extract", str(empty), "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("author\ttitle")
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1


def test_extract_partial_failure(tmp_path):
    broken_dir = tmp_path / "mixed"
    broken_dir.mkdir()
    shutil.copy(CORPUS_DIR / "persians.xml", broken_dir / "persians.xml")
    (broken_dir / "broken.xml").write_text("<treebank><sentence", encoding="utf-8")
    out = tmp_path / "lex.tsv"
    assert main(["extract", str(broken_dir), "-o", str(out)]) == 2
    assert len(out.read_text(encoding="utf-8").splitlines()) == 4  # header + 3 entries
    report = out.with_name(out.name + ".report.tsv")
    assert "file_error" in report.read_text(encoding="utf-8")


# the characters that split a TSV row and that XML 1.0 can carry, as
# character references: a tab, every line break str.splitlines knows but
# the C0 controls \x0b, \x0c and \x1c-\x1e, which XML forbids
_XML_LAYOUT_BREAKS = ("&#9;", "&#10;", "&#13;", "&#x85;", "&#x2028;", "&#x2029;")


def _layout_break(reference):
    """The character an XML character reference stands for."""
    code = reference[2:-1]
    return chr(int(code[1:], 16) if code.startswith("x") else int(code))


def _sentence_xml(sentence_id, subdoc):
    return (
        f'<sentence id="{sentence_id}" subdoc="{subdoc}">'
        '<word id="1" form="λόγον" lemma="λόγος" postag="n-s---ma-" head="2" relation="OBJ"/>'
        '<word id="2" form="λέγει" lemma="λέγω" postag="v3spia---" head="0" relation="PRED"/>'
        "</sentence>"
    )


def _report_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert all(line.count("\t") == 3 for line in lines)
    return [line.split("\t") for line in lines[1:]]


def test_extract_field_that_would_break_the_tsv_is_an_error(tmp_path, capsys):
    # an author or title that would break the lexicon's TSV fails its file,
    # such a subdoc excludes its sentence; both are reported, neither repaired
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "good.xml").write_text(
        f'<treebank author="Homer" title="Iliad">{_sentence_xml(1, "1.1")}</treebank>',
        encoding="utf-8",
    )
    out = tmp_path / "lex.tsv"
    for reference in _XML_LAYOUT_BREAKS:
        value = "1" + _layout_break(reference) + "X"
        for field in ("author", "title", "subdoc"):
            values = {"author": "Homer", "title": "Odyssey", "subdoc": "2.1"}
            values[field] = f"1{reference}X"
            (corpus / "tab.xml").write_text(
                f'<treebank author="{values["author"]}" title="{values["title"]}">'
                f'{_sentence_xml(1, values["subdoc"])}{_sentence_xml(2, "2.2")}</treebank>',
                encoding="utf-8",
            )
            code = main(["extract", str(corpus), "-o", str(out)])
            report = _report_rows(out.with_name(out.name + ".report.tsv"))
            manifest = out.with_name(out.name + ".manifest.json")
            inputs = json.loads(manifest.read_text(encoding="utf-8"))["inputs"]
            detail = f"{field} {value!r} would corrupt the TSV layout"
            if field == "subdoc":
                assert code == 0, reference
                assert report == [["tab.xml", "1", "sentence_excluded", detail]]
                assert [e.subdoc for e in read_lexicon(out)] == ["1.1", "2.2"]
                assert len(inputs) == 2
            else:
                assert code == 2, (reference, field)
                assert report == [["tab.xml", "", "file_error", detail]]
                assert [e.title for e in read_lexicon(out)] == ["Iliad"]
                assert len(inputs) == 1  # only the file that was used is hashed
                assert "1 file(s) failed" in capsys.readouterr().out
            assert capsys.readouterr().err == ""


def test_casestudy_reports_fields_that_would_break_the_tsv(tmp_path, capsys):
    config_path = _write_case_files(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["casestudy", "--config", str(config_path)]) == 0
    clean_outputs = _case_outputs(out_dir)
    corpus = tmp_path / "corpus"
    (corpus / "author.xml").write_text(
        f'<treebank author="Homer&#10;X" title="Iliad">{_sentence_xml(9001, "1.1")}</treebank>',
        encoding="utf-8",
    )
    (corpus / "subdoc.xml").write_text(
        f'<treebank author="Homer" title="Iliad">{_sentence_xml(9002, "1&#x2028;2")}</treebank>',
        encoding="utf-8",
    )
    capsys.readouterr()
    assert main(["casestudy", "--config", str(config_path)]) == 2
    assert "1 file(s) failed" in capsys.readouterr().out
    assert _case_outputs(out_dir) == clean_outputs
    assert _report_rows(out_dir / "report.tsv") == [
        ["author.xml", "", "file_error", "author 'Homer\\nX' would corrupt the TSV layout"],
        ["subdoc.xml", "9002", "sentence_excluded",
         "subdoc '1\\u20282' would corrupt the TSV layout"],
    ]


def test_report_rows_escape_layout_breaks_in_file_names(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    names = ("bad\nname.xml", "tab\tname.xml", "sep\u2028name.xml")
    for name in names:
        (corpus / name).write_text("<treebank><sentence", encoding="utf-8")
    out = tmp_path / "lex.tsv"
    assert main(["extract", str(corpus), "-o", str(out)]) == 2
    rows = _report_rows(out.with_name(out.name + ".report.tsv"))
    assert [row[:3] for row in rows] == [
        ["bad\\nname.xml", "", "file_error"],
        ["sep\\u2028name.xml", "", "file_error"],
        ["tab\\tname.xml", "", "file_error"],
    ]


def test_extract_skips_a_lemma_the_frame_format_reserves(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "comma.xml").write_text(
        '<treebank author="Homer" title="Iliad">'
        '<sentence id="1" subdoc="1.1">'
        '<word id="1" form="ἄγει" lemma="ἄγω" postag="v3spia---" head="0" relation="PRED"/>'
        '<word id="2" form="εἰς" lemma="εἰς,ἐς" postag="r--------" head="1" relation="AuxP"/>'
        '<word id="3" form="ναῦν" lemma="ναῦς" postag="n-s---fa-" head="2" relation="OBJ"/>'
        "</sentence>"
        '<sentence id="2" subdoc="1.2">'
        '<word id="1" form="ἄγει" lemma="ἄγω" postag="v3spia---" head="0" relation="PRED"/>'
        '<word id="2" form="ναῦν" lemma="ναῦς" postag="n-s---fa-" head="1" relation="OBJ"/>'
        "</sentence>"
        + "".join(
            f'<sentence id="{sentence_id}" subdoc="2.1">'
            '<word id="1" form="ἄγει" lemma="ἄγω" postag="v3spia---" head="0" relation="PRED"/>'
            f'<word id="2" form="ναῦν" lemma="ναῦς{reference}" postag="n-s---fa-" head="1" '
            'relation="OBJ"/></sentence>'
            for sentence_id, reference in enumerate(_XML_LAYOUT_BREAKS, start=3)
        )
        + "</treebank>",
        encoding="utf-8",
    )
    lexicon = tmp_path / "lex.tsv"
    assert main(["extract", str(corpus), "-o", str(lexicon)]) == 0
    report = lexicon.with_name(lexicon.name + ".report.tsv").read_text(encoding="utf-8")
    rows = [line.split("\t") for line in report.splitlines()[1:]]
    assert rows[0][:3] == ["comma.xml", "1", "word_skipped"]
    assert "εἰς,ἐς" in rows[0][3]
    skipped = [row for row in rows if row[1] not in ("1", "2")]
    assert [row[:3] for row in skipped] == [
        ["comma.xml", str(sentence_id), "word_skipped"]
        for sentence_id in range(3, 3 + len(_XML_LAYOUT_BREAKS))
    ]
    assert all("reserved character" in row[3] for row in skipped)
    capsys.readouterr()
    assert main(["stats", str(lexicon)]) == 0
    capsys.readouterr()
    assert main(["query", str(lexicon), "--realization", "accusative"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[7] for line in out[1:]] == ["active_OBJ[accusative]"]


def test_extract_builds_no_lexicon(tmp_path, monkeypatch):
    def refuse(entries):
        raise AssertionError("Lexicon built")

    _write_case_files(tmp_path)
    monkeypatch.setattr(lexicon_module, "Lexicon", refuse)
    assert main(["extract", str(tmp_path / "corpus"), "-o", str(tmp_path / "lex.tsv")]) == 0


def test_extract_unreadable_path_is_usage_error(tmp_path, capsys):
    assert main(["extract", str(tmp_path / "missing"), "-o", str(tmp_path / "x.tsv")]) == 1
    assert "not a directory" in capsys.readouterr().err


def test_extract_into_a_missing_directory_fails_before_reading_xml(tmp_path, capsys, monkeypatch):
    parsed = []
    monkeypatch.setattr(cli, "parse_treebank_file", lambda *args, **kwargs: parsed.append(args))
    missing = tmp_path / "nonexistent" / "dir"
    assert main(["extract", str(CORPUS_DIR), "-o", str(missing / "lex.tsv")]) == 1
    assert capsys.readouterr().err == f"error: not a directory: {missing}\n"
    assert parsed == []


def test_extract_into_an_existing_directory_fails_before_reading_xml(
    tmp_path, capsys, monkeypatch
):
    parsed = []
    monkeypatch.setattr(cli, "parse_treebank_file", lambda *args, **kwargs: parsed.append(args))
    assert main(["extract", str(CORPUS_DIR), "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: is a directory: {tmp_path}\n"
    assert parsed == []


def test_casestudy_into_a_file_fails_before_reading_xml(tmp_path, capsys, monkeypatch):
    config_path = _write_case_files(tmp_path)
    parsed = []
    monkeypatch.setattr(cli, "parse_treebank_file", lambda *args, **kwargs: parsed.append(args))
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    argv = ["casestudy", "--config", str(config_path), "--output-dir", str(blocker)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: not a directory: {blocker}\n"
    assert parsed == []
    assert blocker.read_bytes() == b""


def _no_xml_may_be_read(*args, **kwargs):
    raise AssertionError("a treebank file was read before the outputs were checked")


@pytest.mark.parametrize("suffix", [".report.tsv", ".manifest.json"])
def test_extract_onto_a_directory_beside_the_lexicon_fails_before_reading_xml(
    tmp_path, capsys, monkeypatch, suffix
):
    monkeypatch.setattr(cli, "parse_treebank_file", _no_xml_may_be_read)
    output = tmp_path / "x.tsv"
    blocked = tmp_path / f"x.tsv{suffix}"
    blocked.mkdir()
    assert main(["extract", str(CORPUS_DIR), "-o", str(output)]) == 1
    assert capsys.readouterr().err == f"error: is a directory: {blocked}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [blocked.name]


@pytest.mark.parametrize(
    "name",
    ["table5.tsv", "table6.tsv", "fig2_boxplot.csv", "run.log", "report.tsv", "manifest.json"],
)
def test_casestudy_onto_a_directory_in_the_output_dir_fails_before_reading_xml(
    tmp_path, capsys, monkeypatch, name
):
    config_path = _write_case_files(tmp_path)
    monkeypatch.setattr(cli, "parse_treebank_file", _no_xml_may_be_read)
    output_dir = tmp_path / "out"
    blocked = output_dir / name
    blocked.mkdir(parents=True)
    assert main(["casestudy", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: is a directory: {blocked}\n"
    assert [p.name for p in output_dir.iterdir()] == [name]


def test_casestudy_checks_exactly_the_files_it_leaves_in_the_output_dir(tmp_path, monkeypatch):
    config_path = _write_case_files(tmp_path)
    output_dir = tmp_path / "out"
    checked = []
    is_dir = Path.is_dir

    def record_is_dir(path):
        if path.parent == output_dir:
            checked.append(path.name)
        return is_dir(path)

    monkeypatch.setattr(Path, "is_dir", record_is_dir)
    assert main(["casestudy", "--config", str(config_path)]) == 0
    monkeypatch.undo()
    left = [p.name for p in output_dir.iterdir()]
    assert sorted(checked) == sorted(left)
    assert set(left) == {*OUTPUT_NAMES.values(), "report.tsv", "manifest.json"}


@pytest.mark.parametrize(
    "encoding,fault",
    [("xTF-8", "unknown encoding: xTF-8"), ("UTF-32", "multi-byte encodings are not supported")],
)
def test_a_file_in_an_unreadable_encoding_is_reported_and_skipped(tmp_path, encoding, fault):
    declared = f'<?xml version="1.0" encoding="{encoding}"?><treebank/>'.encode("ascii")
    expected = ["odd.xml", "", "file_error", f"unusable encoding: {fault} (byte offset 0)"]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(CORPUS_DIR / "persians.xml", corpus / "persians.xml")
    (corpus / "odd.xml").write_bytes(declared)
    out = tmp_path / "lex.tsv"
    assert main(["extract", str(corpus), "-o", str(out)]) == 2
    assert len(out.read_text(encoding="utf-8").splitlines()) == 4  # header + 3 entries
    assert _report_rows(out.with_name(out.name + ".report.tsv")) == [expected]

    case_dir = tmp_path / "case"
    case_dir.mkdir()
    config_path = _write_case_files(case_dir)
    (case_dir / "corpus" / "odd.xml").write_bytes(declared)
    assert main(["casestudy", "--config", str(config_path)]) == 2
    assert _report_rows(case_dir / "out" / "report.tsv") == [expected]


def test_stats_tables(extracted, capsys):
    assert main(["stats", str(extracted), "--basic"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "metric\tvalue"
    assert "entries\t63" in out

    assert main(["stats", str(extracted), "--by-author"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "TOTAL\t63"

    assert main(["stats", str(extracted), "--frames", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["frame\tcount", "active_SBJ[nominative]\t21"]


def test_query_exit_codes(extracted, capsys):
    assert main(["query", str(extracted), "--verb", "αἱρέω", "--realization", "genitive"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and "Herodotus" in out[1]

    assert main(["query", str(extracted), "--verb", "οὐδαμός"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1  # header only


def test_query_no_filters_prints_everything(extracted, capsys):
    assert main(["query", str(extracted)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 64


def test_query_prints_the_lexicon_layout_byte_for_byte(tmp_path, capsysbinary):
    golden = GOLDEN_LEXICON.read_bytes()
    header, *rows = golden.splitlines(keepends=True)
    assert main(["query", str(GOLDEN_LEXICON)]) == 0
    assert capsysbinary.readouterr().out == golden
    # the rows go through the lexicon file's writer, which writes NFC
    decomposed = tmp_path / "nfd.tsv"
    decomposed.write_text(unicodedata.normalize("NFD", golden.decode("utf-8")), encoding="utf-8")
    assert decomposed.read_bytes() != golden
    assert main(["query", str(decomposed)]) == 0
    assert capsysbinary.readouterr().out == golden
    assert main(["query", str(GOLDEN_LEXICON), "--verb", "φέρω", "--voice", "active"]) == 0
    expected = [row for row in rows if row.split(b"\t")[3:5] == ["φέρω".encode(), b"active"]]
    assert len(expected) > 1
    assert capsysbinary.readouterr().out == header + b"".join(expected)


def test_an_nfd_lexicon_answers_greek_filters_as_its_nfc_form(tmp_path, capsysbinary):
    decomposed = tmp_path / "nfd.tsv"
    decomposed.write_text(
        unicodedata.normalize("NFD", GOLDEN_LEXICON.read_text(encoding="utf-8")), encoding="utf-8"
    )
    outputs = []
    for argv in (
        ["query", "--verb", "φέρω"],
        ["query", "--mediator", "εἰς"],
        ["constructions", "--verb", "φέρω"],
        ["stats", "--basic"],
    ):
        assert main([argv[0], str(GOLDEN_LEXICON), *argv[1:]]) == 0, argv
        want = capsysbinary.readouterr()
        assert main([argv[0], str(decomposed), *argv[1:]]) == 0, argv
        assert capsysbinary.readouterr() == want, argv
        outputs.append(want.out)
    assert outputs[0].count(b"\n") == 11  # query --verb φέρω: the header and 10 rows


def test_query_reports_malformed_frames_cleanly(tmp_path, capsys):
    path = tmp_path / "mangled.tsv"
    header = "author\ttitle\tsubdoc\tverb\tvoice\tsentence_id\troot_id\tframe\tframe_fillers"
    row = "Homer\tIliad\t1.1\tφέρω\tactive\t7\t2\tbroken\tbroken"
    path.write_text(header + "\n" + row + "\n", encoding="utf-8")
    assert main(["query", str(path), "--realization", "accusative"]) == 1
    assert "malformed frame" in capsys.readouterr().err


def test_constructions_and_diff(extracted, tmp_path, capsys):
    assert main(["constructions", str(extracted), "--verb", "φέρω", "--min-authors", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("φέρω\tactive_OBJ[accusative]\t2\t")

    known = tmp_path / "known.txt"
    known.write_text("active_OBJ[accusative]\nmiddle_OBJ[genitive]\n", encoding="utf-8")
    assert main(
        ["constructions", str(extracted), "--verb", "φέρω", "--known-frames", str(known)]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "side\tframe\tcount\tauthors"
    assert any(line.startswith("known\tmiddle_OBJ[genitive]") for line in out)
    assert not any("active_OBJ[accusative]\t2" in line for line in out if line.startswith("known"))

    assert main(["constructions", str(extracted), "--verb", "οὐδαμός"]) == 3


@pytest.mark.parametrize("threshold", [["--min-count", "2"], ["--min-authors", "2"]],
                         ids=["min-count", "min-authors"])
def test_a_known_frames_diff_lists_the_frames_the_thresholds_keep(
    extracted, tmp_path, capsys, threshold
):
    known_frames = ["active_SBJ[nominative]", "active_(εἰς)OBJ[accusative]", "middle_OBJ[genitive]"]
    known = tmp_path / "known.txt"
    known.write_text("".join(frame + "\n" for frame in known_frames), encoding="utf-8")
    plain = ["constructions", str(extracted), "--verb", "φέρω"]

    def rows(argv):
        assert main(argv) == 0, argv
        return [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]

    diff = ["--known-frames", str(known)]
    unthresholded = rows(plain + diff)
    thresholded = rows(plain + diff + threshold)
    inventory = rows(plain + threshold)
    assert [row for row in thresholded if row[0] == "lexicon"] == [
        ["lexicon", *row[1:]] for row in inventory if row[1] not in known_frames
    ]
    assert [row for row in thresholded if row[0] == "known"] == [
        row for row in unthresholded if row[0] == "known"
    ] == [["known", "middle_OBJ[genitive]", "", ""]]
    # the thresholds left out some frames the plain diff lists
    assert 0 < len(thresholded) < len(unthresholded)


def test_each_query_flag_is_a_filter_of_query_entries(extracted, monkeypatch):
    filters = list(inspect.signature(cli.query_entries).parameters)[1:]
    subcommands = next(
        action for action in cli.build_parser()._actions if action.dest == "command"
    )
    query = subcommands.choices["query"]
    assert [action.dest for action in query._actions if action.option_strings][1:] == filters
    calls = []
    monkeypatch.setattr(cli, "query_entries", lambda lexicon, **kwargs: calls.append(kwargs) or [])
    argv = ["query", str(extracted)]
    for name in filters:
        argv += ["--" + name.replace("_", "-"), name]
    assert main(argv) == 3
    assert calls == [{name: name for name in filters}]


def test_query_and_constructions_read_their_arguments_as_nfc(extracted, tmp_path, capsysbinary):
    def nfd(value):
        return unicodedata.normalize("NFD", value)

    known = tmp_path / "known.txt"
    known.write_text("active_(εἰς)OBJ[accusative]\nmiddle_OBJ[genitive]\n", encoding="utf-8")
    known_nfd = tmp_path / "known-nfd.txt"
    known_nfd.write_text(nfd(known.read_text(encoding="utf-8")), encoding="utf-8")
    lexicon = str(extracted)
    runs = [
        (["query", lexicon, "--verb", "φέρω"], 0),
        (["query", lexicon, "--mediator", "εἰς"], 0),
        (["query", lexicon, "--verb", "ἄγω", "--realization", "accusative"], 0),
        (["query", lexicon, "--frame-contains", "(εἰς)", "--realization", "accusative"], 0),
        (["constructions", lexicon, "--verb", "φέρω"], 0),
        (["constructions", lexicon, "--verb", "ἄγω", "--known-frames", str(known)], 0),
    ]
    for argv, code in runs:
        assert main(argv) == code, argv
        want = capsysbinary.readouterr()
        assert want.out.count(b"\n") > 1, argv
        spelled = argv[:2] + [nfd(arg) for arg in argv[2:]]  # the paths as they are
        if "--known-frames" in argv:
            spelled[-1] = str(known_nfd)
        assert spelled != argv
        assert main(spelled) == code, spelled
        assert capsysbinary.readouterr() == want, argv


def test_betacode_command(capsys):
    assert main(["betacode", "de/os"]) == 0
    assert capsys.readouterr().out == "δέος\n"
    assert main(["betacode", ""]) == 0
    assert capsys.readouterr().out == "\n"
    assert main(["betacode", "de?os"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: character outside the Beta Code alphabet: '?' at offset 2\n"


def test_betacode_file_batch(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("de/os\nfrenw=n\n", encoding="utf-8")
    assert main(["betacode", "--file", str(batch)]) == 0
    assert capsys.readouterr().out == "δέος\nφρενῶν\n"
    # a bad line converts nothing and is named by its number
    batch.write_text("de/os\nde?os\nfrenw=n\n", encoding="utf-8")
    assert main(["betacode", "--file", str(batch)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 2: character outside the Beta Code alphabet: '?' at offset 2\n"
    )
    assert main(["betacode"]) == 1
    assert main(["betacode", "de/os", "--file", str(batch)]) == 1


def test_extract_participle_toggle(tmp_path):
    out = tmp_path / "noptc.tsv"
    code = main(
        [
            "extract",
            str(CORPUS_DIR),
            "--manifest",
            str(MANIFEST_FILE),
            "--no-include-participles",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 63  # header + 62: the one participle-headed entry is gone
    assert not any("\t2002\t" in line for line in lines)


def test_extract_figure1_layout_flag(tmp_path):
    out = tmp_path / "fig1.tsv"
    assert (
        main(
            [
                "extract",
                str(CORPUS_DIR),
                "--manifest",
                str(MANIFEST_FILE),
                "--figure1-layout",
                "-o",
                str(out),
            ]
        )
        == 0
    )
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert "root_id" not in header
    assert len(header.split("\t")) == 8


def test_stats_rejects_negative_frames(extracted, capsys):
    assert main(["stats", str(extracted), "--frames", "-2"]) == 1
    assert "non-negative" in capsys.readouterr().err


def test_stats_rejects_negative_frames_before_reading_the_lexicon(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "missing.tsv"), "--frames", "-1"]) == 1
    assert capsys.readouterr().err == "error: --frames takes a non-negative count\n"


@pytest.mark.parametrize("flag", ["--min-count", "--min-authors"])
def test_constructions_rejects_a_negative_threshold_before_reading_the_lexicon(
    tmp_path, capsys, flag
):
    for lexicon in (tmp_path / "missing.tsv", GOLDEN_LEXICON):
        assert main(["constructions", str(lexicon), "--verb", "φέρω", flag, "-5"]) == 1
        assert capsys.readouterr() == ("", f"error: {flag} takes a non-negative count\n")


@pytest.mark.parametrize("value", ["x", "-1", "1.5", ""])
@pytest.mark.parametrize(
    "command, flag",
    [
        (["stats"], "--frames"),
        (["constructions", "--verb", "φέρω"], "--min-count"),
        (["constructions", "--verb", "φέρω"], "--min-authors"),
    ],
)
def test_a_count_flag_rejects_every_bad_value_on_one_line(tmp_path, capsys, command, flag, value):
    # a non-integer gets the negative count's line, not argparse's usage block
    name, *rest = command
    for lexicon in (tmp_path / "missing.tsv", GOLDEN_LEXICON):
        assert main([name, str(lexicon), *rest, f"{flag}={value}"]) == 1
        assert capsys.readouterr() == ("", f"error: {flag} takes a non-negative count\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert __version__ in out and "lexicon format" in out


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as info:
        main(["stats"])  # missing lexicon argument
    assert info.value.code == 1


def _write_case_files(tmp_path):
    case = synthetic_case.build_case(tmp_path)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    _trees_to_xml(case["corpus"], corpus_dir)
    lexicon_path = tmp_path / "lexicon.tsv"
    write_lexicon(case["lexicon"], lexicon_path)
    config_path = tmp_path / "case.conf"
    config_path.write_text(
        "\n".join(
            [
                f"treebank_dir = {corpus_dir}",
                f"lexicon_path = {lexicon_path}",
                f"vector_space_path = {case['vectors_path']}",
                f"formula_span_path = {case['spans_path']}",
                f"output_dir = {tmp_path / 'out'}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return config_path


def _trees_to_xml(trees, corpus_dir):
    by_work = {}
    for tree in trees:
        by_work.setdefault((tree.author, tree.title), []).append(tree)
    for index, ((author, title), work_trees) in enumerate(sorted(by_work.items())):
        lines = [f'<treebank author="{author}" title="{title}">']
        for tree in work_trees:
            lines.append(f'  <sentence id="{tree.sentence_id}" subdoc="{tree.subdoc}">')
            for node in tree.nodes:
                from grcvalency.postag import encode_postag

                # a synthetic tree's words are spelled as their lemmas
                lines.append(
                    f'    <word id="{node.token_id}" form="{node.lemma}" lemma="{node.lemma}" '
                    f'postag="{encode_postag(node.postag)}" head="{node.head_id}" '
                    f'relation="{node.relation}"/>'
                )
            lines.append("  </sentence>")
        lines.append("</treebank>")
        (corpus_dir / f"work{index}.xml").write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_casestudy_command_end_to_end(tmp_path, capsys):
    config_path = _write_case_files(tmp_path)
    assert main(["casestudy", "--config", str(config_path)]) == 0
    out_dir = tmp_path / "out"
    table6 = (out_dir / "table6.tsv").read_text(encoding="utf-8").splitlines()
    assert len(table6) == 3
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "run.log").exists()
    assert (out_dir / "fig2_boxplot.csv").exists()

    # rerunning over identical inputs rewrites byte-identical reports
    snapshot = {
        name: (out_dir / name).read_bytes()
        for name in ("table5.tsv", "table6.tsv", "fig2_boxplot.csv", "run.log")
    }
    assert main(["casestudy", "--config", str(config_path)]) == 0
    for name, payload in snapshot.items():
        assert (out_dir / name).read_bytes() == payload

    # threshold override drives every verb out of the report: empty-result exit
    assert (
        main(
            [
                "casestudy",
                "--config",
                str(config_path),
                "--min-object-types",
                "500",
            ]
        )
        == 3
    )


def _shuffle_rows(path, keep):
    """Shuffle the lines of ``path`` after its first ``keep``."""
    lines = path.read_bytes().splitlines(keepends=True)
    body = lines[keep:]
    random.Random(7).shuffle(body)
    assert body != lines[keep:]
    path.write_bytes(b"".join(lines[:keep] + body))


def _add_unused_vectors(tmp_path):
    # 50 rows ahead of the others, for lemmas no pair holds; the header counts them
    path = tmp_path / "vectors.txt"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    count, dimension = map(int, header.split())
    extra = [
        f"ἀργ{index} " + " ".join(str(index + axis + 1) for axis in range(dimension))
        for index in range(50)
    ]
    path.write_text("\n".join([f"{count + 50} {dimension}", *extra, *rows]) + "\n", encoding="utf-8")


def _add_non_epic_work(tmp_path):
    # the compared verbs with their objects, in a work neither epic nor under
    # a span: sentence ids no span line names
    sentences = []
    for index, (verb, obj) in enumerate(
        [(synthetic_case.TIGHT_VERB, lemma) for lemma in synthetic_case.TIGHT_EPIC_TYPES]
        + [(synthetic_case.SAME_VERB, lemma) for lemma in synthetic_case.SAME_TYPES]
    ):
        sentences.append(
            f'  <sentence id="{90_000 + index}" subdoc="{index + 1}">\n'
            f'    <word id="1" form="{verb}" lemma="{verb}" postag="v3spia---" head="0" relation="PRED"/>\n'
            f'    <word id="2" form="{obj}" lemma="{obj}" postag="n-s---ma-" head="1" relation="OBJ"/>\n'
            "  </sentence>\n"
        )
    (tmp_path / "corpus" / "republic.xml").write_text(
        '<treebank author="Plato" title="Republic">\n' + "".join(sentences) + "</treebank>\n",
        encoding="utf-8",
    )


@pytest.mark.parametrize(
    "change",
    [
        lambda tmp_path: _shuffle_rows(tmp_path / "lexicon.tsv", keep=1),
        lambda tmp_path: _shuffle_rows(tmp_path / "vectors.txt", keep=1),
        _add_unused_vectors,
        _add_non_epic_work,
    ],
    ids=["shuffled-lexicon", "shuffled-vectors", "unused-vectors", "non-epic-work"],
)
def test_casestudy_outputs_ignore_changes_that_carry_no_evidence(tmp_path, change):
    # metamorphic relations: an input change that carries no evidence about
    # the compared verbs leaves every table, the log and the report as they were
    config_path = _write_case_files(tmp_path)
    out_dir = tmp_path / "out"
    names = ("table5.tsv", "table6.tsv", "fig2_boxplot.csv", "run.log", "report.tsv")
    assert main(["casestudy", "--config", str(config_path)]) == 0
    before = {name: (out_dir / name).read_bytes() for name in names}
    change(tmp_path)
    assert main(["casestudy", "--config", str(config_path)]) == 0
    assert {name: (out_dir / name).read_bytes() for name in names} == before


def test_casestudy_manifest_records_every_setting(tmp_path):
    config_path = _write_case_files(tmp_path)
    assert main(["casestudy", "--config", str(config_path), "--min-epic-tokens", "7"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    recorded = manifest["config"]
    assert {field.name for field in dataclasses.fields(CaseStudyConfig)} <= set(recorded)
    assert recorded["min_epic_tokens"] == 7
    assert recorded["lexicon_path"] == str(tmp_path / "lexicon.tsv")
    assert recorded["manifest_path"] == ""
    assert recorded["epic_works"] == ["|".join(work) for work in DEFAULT_EPIC_WORKS]
    assert recorded["variance_convention"] == "sample (n-1)"


@pytest.mark.parametrize("flag,key", [("--min-epic-tokens", "min_epic_tokens"),
                                      ("--min-object-types", "min_object_types")])
def test_a_threshold_flag_is_read_as_the_config_file_reads_it(tmp_path, capsys, flag, key):
    config_path = _write_case_files(tmp_path)
    assert main(["casestudy", "--config", str(config_path), flag, "x"]) == 1
    from_flag = capsys.readouterr()
    with config_path.open("a", encoding="utf-8") as handle:
        handle.write(f"{key} = x\n")
    assert main(["casestudy", "--config", str(config_path)]) == 1
    from_file = capsys.readouterr()
    assert from_flag.err == from_file.err == f"error: {key} must be an integer, got 'x'\n"
    assert from_flag.out == from_file.out == ""


def test_casestudy_drops_a_verb_whose_vector_has_a_length_of_zero(tmp_path, capsys):
    # 1e-200 squared underflows: the vector is not all zeros, yet has no direction
    config_path = _write_case_files(tmp_path)
    vectors = tmp_path / "vectors.txt"
    lemma = synthetic_case.TIGHT_EPIC_TYPES[0]
    lines = vectors.read_text(encoding="utf-8").splitlines(keepends=True)
    (index,) = [i for i, line in enumerate(lines) if line.split()[0] == lemma]
    lines[index] = lemma + " 1e-200" * (len(lines[index].split()) - 1) + "\n"
    vectors.write_text("".join(lines), encoding="utf-8")
    assert main(["casestudy", "--config", str(config_path)]) == 0
    assert capsys.readouterr().err == ""
    verb = synthetic_case.TIGHT_VERB
    log = (tmp_path / "out" / "run.log").read_text(encoding="utf-8").splitlines()
    assert f"drop\t{verb}\tzero_vector\t{verb}/formulaic: {lemma} has a zero vector" in log


def test_casestudy_missing_paths_is_usage_error(tmp_path, capsys):
    config_path = tmp_path / "bare.conf"
    config_path.write_text("output_dir = out\n", encoding="utf-8")
    assert main(["casestudy", "--config", str(config_path)]) == 1
    assert "missing" in capsys.readouterr().err


_FAULTY_XML = """<treebank author="Homer" title="Odyssey">
  <sentence id="901" subdoc="1.1">
    <word id="1" form="mu=qon" lemma="mu=qos1" postag="zz" head="2" relation="OBJ"/>
    <word id="2" form="a)kou/ei" lemma="a)kou/w1" postag="v3spia---" head="0" relation="PRED"/>
  </sentence>
  <sentence id="902" subdoc="1.2">
    <word id="1" form="mu=qon" lemma="mu=qos1" postag="n-s---ma-" head="7" relation="OBJ"/>
    <word id="2" form="a)kou/ei" lemma="a)kou/w1" postag="v3spia---" head="0" relation="PRED"/>
  </sentence>
</treebank>
"""


@pytest.mark.parametrize("seed", [None, 7], ids=["synthetic", "bench seed 7"])
def test_table6_takes_its_medians_from_fig2_and_its_variances_from_summarize(
    tmp_path, monkeypatch, seed
):
    if seed is None:
        config_path = _write_case_files(tmp_path)
    else:
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        config_path = importlib.import_module("inputs").build_casestudy(seed, tmp_path)["config"]
    runs = []

    def spy(config, selection, space, _real=cli.run_case_study):
        runs.append((selection, space))
        return _real(config, selection, space)

    monkeypatch.setattr(cli, "run_case_study", spy)
    assert main(["casestudy", "--config", str(config_path)]) == 0
    [(selection, space)] = runs
    types = {selected.verb: (selected.epic_types, selected.baseline_types)
             for selected in selection.verbs}
    table6 = (tmp_path / "out" / "table6.tsv").read_text(encoding="utf-8").splitlines()[1:]
    with (tmp_path / "out" / "fig2_boxplot.csv").open(encoding="utf-8", newline="") as handle:
        medians = {(row[0], row[1]): row[4] for row in list(csv.reader(handle))[1:]}
    assert len(table6) >= 2 and len(medians) == 2 * len(table6)
    for verb, *columns in (row.split("\t") for row in table6):
        for group, lemmas, median, variance in zip(
            (FORMULAIC, BASELINE), types[verb], columns[0:2], columns[2:4]
        ):
            assert median == medians[verb, group]
            similarities = centroid_similarities(lemmas, space, verb, group).similarities
            assert variance == format(summarize(similarities)["variance"], ".12g")


def _case_outputs(out_dir):
    names = ("table5.tsv", "table6.tsv", "fig2_boxplot.csv", "run.log")
    return {name: (out_dir / name).read_bytes() for name in names}


def test_casestudy_reports_a_malformed_file_and_goes_on(tmp_path, capsys):
    config_path = _write_case_files(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["casestudy", "--config", str(config_path)]) == 0
    clean_outputs = _case_outputs(out_dir)
    clean_inputs = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["inputs"]
    shutil.rmtree(out_dir)

    first = sorted((tmp_path / "corpus").glob("*.xml"))[0].read_bytes()
    (tmp_path / "corpus" / "truncated.xml").write_bytes(first[: len(first) // 2])
    assert main(["casestudy", "--config", str(config_path)]) == 2
    assert "1 file(s) failed" in capsys.readouterr().out
    assert _case_outputs(out_dir) == clean_outputs
    rows = [
        line.split("\t")
        for line in (out_dir / "report.tsv").read_text(encoding="utf-8").splitlines()
    ]
    assert rows[0] == ["file", "sentence_id", "kind", "detail"]
    assert [row[:3] for row in rows[1:]] == [["truncated.xml", "", "file_error"]]
    assert rows[1][3].startswith("malformed XML")
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == clean_inputs  # only the files that parsed are hashed


def test_casestudy_and_extract_report_the_same_rows(tmp_path):
    config_path = _write_case_files(tmp_path)
    corpus = tmp_path / "corpus"
    (corpus / "faulty.xml").write_text(_FAULTY_XML, encoding="utf-8")
    assert main(["casestudy", "--config", str(config_path)]) == 0
    lexicon = tmp_path / "extracted.tsv"
    assert main(["extract", str(corpus), "-o", str(lexicon)]) == 0
    report = (tmp_path / "out" / "report.tsv").read_text(encoding="utf-8")
    assert report == lexicon.with_name(lexicon.name + ".report.tsv").read_text(encoding="utf-8")
    rows = [line.split("\t") for line in report.splitlines()[1:]]
    assert [row[:3] for row in rows] == [
        ["faulty.xml", "901", "word_skipped"],
        ["faulty.xml", "902", "sentence_excluded"],
    ]


def _corrupt_lexicon(path, column, value, author="Athenaeus", verb="ἄγω"):
    """Set ``column`` of the first row of ``author``'s ``verb``; returns its line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    index = lines[0].split("\t").index(column)
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if fields[0] == author and fields[3] == verb:
            fields[index] = value
            lines[lineno - 1] = "\t".join(fields)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return lineno
    raise AssertionError(f"no {author} row for {verb}")


def test_every_lexicon_command_rejects_a_file_with_a_bad_frame(tmp_path, capsys, monkeypatch):
    # a bad frame_fillers, here on an entry casestudy reads as baseline, is
    # judged at load as a bad frame is
    config_path = _write_case_files(tmp_path)
    lexicon = tmp_path / "lexicon.tsv"
    clean = lexicon.read_bytes()
    # casestudy reads the lexicon before it parses a treebank file
    monkeypatch.setattr(cli, "parse_treebank_file", _raise)
    for column, value, chunk in (
        ("frame", "active_OBJ[", "OBJ["),
        ("frame_fillers", "active_OBJ[accusative]{", "OBJ[accusative]{"),
    ):
        lexicon.write_bytes(clean)
        lineno = _corrupt_lexicon(lexicon, column, value)
        expected = (
            f"error: lexicon file rejected: line {lineno}: "
            f"malformed frame element: {chunk!r} in {value!r}\n"
        )
        for argv in (
            ["stats", str(lexicon)],
            ["query", str(lexicon)],
            ["constructions", str(lexicon), "--verb", "ἔχω"],
            ["casestudy", "--config", str(config_path)],
        ):
            assert main(argv) == 1, (column, argv)
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", expected), (column, argv)
    assert not (tmp_path / "out").exists()


def test_undecodable_input_exits_one_with_the_decode_error(tmp_path, capsys, monkeypatch):
    config_path = _write_case_files(tmp_path)
    lexicon = tmp_path / "lexicon.tsv"
    good = tmp_path / "good.tsv"
    shutil.copy(lexicon, good)
    lexicon.write_bytes(lexicon.read_bytes() + b"Homer\t\xff\n")
    undecodable = tmp_path / "lines.txt"
    undecodable.write_bytes(b"de/os\n\xff\n")
    # casestudy reads the lexicon before it parses a treebank file
    monkeypatch.setattr(cli, "parse_treebank_file", _raise)
    assert main(["casestudy", "--config", str(config_path)]) == 1
    expected = capsys.readouterr().err
    assert expected.startswith("error: 'utf-8' codec can't decode byte 0xff")
    for argv in (
        ["stats", str(lexicon)],
        ["query", str(lexicon)],
        ["constructions", str(lexicon), "--verb", "ἔχω"],
        ["constructions", str(good), "--verb", "ἔχω", "--known-frames", str(undecodable)],
        ["betacode", "--file", str(undecodable)],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        if argv[1] == str(lexicon):
            assert captured.err == expected, argv
        else:
            assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff"), argv
    assert not (tmp_path / "out").exists()


def test_a_missing_input_exits_one_with_the_error(tmp_path, capsys):
    config_path = _write_case_files(tmp_path)
    corpus = str(tmp_path / "corpus")
    lexicon = str(tmp_path / "lexicon.tsv")
    missing = str(tmp_path / "missing")
    for argv in (
        ["extract", corpus, "--manifest", missing, "-o", str(tmp_path / "lex.tsv")],
        ["casestudy", "--config", missing],
        ["stats", missing],
        ["query", missing],
        ["constructions", missing, "--verb", "ἔχω"],
        ["constructions", lexicon, "--verb", "ἔχω", "--known-frames", missing],
        ["betacode", "--file", missing],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n", argv
    assert not (tmp_path / "lex.tsv").exists() and not (tmp_path / "out").exists()


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass


def test_a_closed_stdout_exits_one_with_the_error(tmp_path, capsys, monkeypatch):
    config_path = _write_case_files(tmp_path)
    lexicon = str(tmp_path / "lexicon.tsv")
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    for argv in (
        ["extract", str(tmp_path / "corpus"), "-o", str(tmp_path / "lex.tsv")],
        ["casestudy", "--config", str(config_path)],
        ["stats", lexicon],
        ["query", lexicon],
        ["constructions", lexicon, "--verb", synthetic_case.TIGHT_VERB],
        ["betacode", "de/os"],
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n", argv


def test_casestudy_output_dir_under_a_file_is_an_error(tmp_path, capsys):
    config_path = _write_case_files(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    argv = ["casestudy", "--config", str(config_path), "--output-dir", str(blocker / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert blocker.read_bytes() == b""


def _sentence(sentence_id, subdoc, verb, obj):
    return (
        f'<sentence id="{sentence_id}" subdoc="{subdoc}">'
        f'<word id="1" form="v" lemma="{verb}" postag="v3spia---" head="0" relation="PRED"/>'
        f'<word id="2" form="o" lemma="{obj}" postag="n-s---ma-" head="1" relation="OBJ"/>'
        "</sentence>"
    )


def test_extract_streams_files_and_keeps_the_order_of_one_pass(tmp_path):
    # two files of one work: their λέγω entries tie on (author, title, verb,
    # sentence_id, root_id), and the second file's βάλλω sorts before them
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    files = {
        "a.xml": _sentence(1, "a.1", "λέγω", "λόγος") + _sentence(2, "a.2", "φέρω", "ναῦς"),
        "b.xml": _sentence(1, "b.1", "λέγω", "μῦθος") + _sentence(3, "b.3", "βάλλω", "λίθος"),
    }
    for name, sentences in files.items():
        (corpus / name).write_text(
            f'<treebank author="Homer" title="Iliad">{sentences}</treebank>', encoding="utf-8"
        )
    out = tmp_path / "lex.tsv"
    assert main(["extract", str(corpus), "-o", str(out)]) == 0

    trees = []
    for name in sorted(files):
        trees += parse_treebank_file((corpus / name).read_bytes())[0]
    one_pass = tmp_path / "one_pass.tsv"
    write_lexicon(Lexicon(extract_entries(trees)), one_pass)
    assert out.read_bytes() == one_pass.read_bytes()
    assert [entry.subdoc for entry in read_lexicon(out).entries] == ["b.3", "a.1", "b.1", "a.2"]


def test_casestudy_holds_no_tree_once_its_verbs_are_selected(tmp_path, monkeypatch):
    config_path = _write_case_files(tmp_path)
    parsed, alive = [], []
    real_parse, real_load = cli.parse_treebank_file, cli.load_vector_space

    def parse(*args, **kwargs):
        trees, issues = real_parse(*args, **kwargs)
        parsed.extend(weakref.ref(tree) for tree in trees)
        return trees, issues

    def load(*args, **kwargs):
        alive.extend(ref for ref in parsed if ref() is not None)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_treebank_file", parse)
    monkeypatch.setattr(cli, "load_vector_space", load)
    assert main(["casestudy", "--config", str(config_path)]) == 0
    assert parsed
    assert alive == []


def test_casestudy_reads_the_treebank_before_the_span_file(tmp_path, capsys):
    # an input with two faults reports the first one read
    config_path = _write_case_files(tmp_path)
    manifest, spans = tmp_path / "meta.tsv", tmp_path / "bad_spans.tsv"
    manifest.write_bytes(b"\xff\n")
    spans.write_text("1\t2\t3\n", encoding="utf-8")
    # each key once: the config's own span file is replaced, not named again
    config = [line for line in config_path.read_text(encoding="utf-8").splitlines()
              if not line.startswith("formula_span_path")]
    config += [f"manifest_path = {manifest}", f"formula_span_path = {spans}"]
    config_path.write_text("\n".join(config) + "\n", encoding="utf-8")
    assert main(["casestudy", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def _retitled_data_copy(destination, form):
    """A copy of the test data whose Iliad (titled in the metadata manifest)
    and Theogony (titled in the XML) carry Greek titles in Unicode ``form``,
    and a casestudy config that names them in NFC; returns the config."""
    shutil.copytree(DATA_DIR, destination)
    iliad, theogony = (unicodedata.normalize(form, title) for title in ("Ἰλιάς", "Θεογονία"))
    manifest = destination / "manifest.tsv"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace("\tIliad", "\t" + iliad), encoding="utf-8")
    xml = destination / "corpus" / "theogony.xml"
    text = xml.read_text(encoding="utf-8")
    xml.write_text(text.replace('title="Theogony"', f'title="{theogony}"'), encoding="utf-8")
    config = destination / "case.conf"
    config.write_text(
        f"treebank_dir = {destination / 'corpus'}\n"
        f"manifest_path = {manifest}\n"
        f"lexicon_path = {destination / 'golden_lexicon.tsv'}\n"
        f"vector_space_path = {destination / 'toy_vectors.txt'}\n"
        f"formula_span_path = {destination / 'spans.tsv'}\n"
        f"output_dir = {destination / 'out'}\n"
        "epic_works = Homer|Ἰλιάς; Hesiod|Θεογονία\n"
        "min_epic_tokens = 1\nmin_object_types = 1\n",
        encoding="utf-8",
    )
    return config


def test_casestudy_matches_nfc_works_to_nfd_treebank_metadata(tmp_path, capsys):
    runs = {}
    for form in ("NFC", "NFD"):
        config = _retitled_data_copy(tmp_path / form, form)
        code = main(["casestudy", "--config", str(config)])
        out_dir = tmp_path / form / "out"
        outputs = _case_outputs(out_dir)
        outputs["report.tsv"] = (out_dir / "report.tsv").read_bytes()
        runs[form] = code, capsys.readouterr().out.replace(str(tmp_path / form), ""), outputs
    assert b"total=29 formulaic=5 non_formulaic=24" in runs["NFC"][2]["run.log"]
    assert runs["NFD"] == runs["NFC"]


def test_casestudy_reads_config_paths_as_spelled(tmp_path, capsys):
    # a directory name as a decomposing file system writes it, run before
    # its NFC twin exists; the work names are still matched in NFC
    runs = {}
    for form in ("NFD", "NFC"):
        directory = tmp_path / unicodedata.normalize(form, "Ἰλιάς")
        config = _retitled_data_copy(directory, "NFC")
        code = main(["casestudy", "--config", str(config)])
        captured = capsys.readouterr()
        assert captured.err == "", form
        runs[form] = code, captured.out.replace(str(directory), ""), _case_outputs(directory / "out")
    assert b"total=29 formulaic=5 non_formulaic=24" in runs["NFC"][2]["run.log"]
    assert runs["NFD"] == runs["NFC"]


def _text_inputs(base):
    """Every kind of text input the commands read, under ``base`` with
    relative paths: a copy of the test data, known frames, a Beta Code
    batch, and the synthetic case, its vectors also written without a
    header so that line 1 holds a compared object's vector."""
    shutil.copytree(DATA_DIR, base / "data")
    (base / "known.txt").write_text("middle_OBJ[accusative]\nactive_OBJ[genitive]\n",
                                    encoding="utf-8")
    (base / "batch.txt").write_text("lo/gos\nfrenw=n\n", encoding="utf-8")
    case_dir = base / "case"
    (case_dir / "corpus").mkdir(parents=True)
    case = synthetic_case.build_case(case_dir)
    _trees_to_xml(case["corpus"], case_dir / "corpus")
    write_lexicon(case["lexicon"], case_dir / "lexicon.tsv")
    _, *rows = case["vectors_path"].read_text(encoding="utf-8").splitlines(keepends=True)
    assert rows[0].split()[0] == synthetic_case.TIGHT_EPIC_TYPES[0]
    (case_dir / "bare_vectors.txt").write_text("".join(rows), encoding="utf-8")
    (case_dir / "case.conf").write_text(
        "treebank_dir = case/corpus\nlexicon_path = case/lexicon.tsv\n"
        "vector_space_path = case/vectors.txt\nformula_span_path = case/spans.tsv\n"
        "output_dir = out\n",
        encoding="utf-8",
    )


_CASESTUDY = ["casestudy", "--config", "case/case.conf"]


# every kind of text input, by name: its path under _text_inputs' base and
# a command that reads it
_TEXT_INPUT_RUNS = {
    "manifest": ("data/manifest.tsv",
                 ["extract", "data/corpus", "--manifest", "data/manifest.tsv", "-o", "lexicon.tsv"]),
    "known_frames": ("known.txt",
                     ["constructions", "data/golden_lexicon.tsv", "--verb", "ἀκούω",
                      "--known-frames", "known.txt"]),
    "vectors": ("case/bare_vectors.txt", [*_CASESTUDY, "--vectors", "case/bare_vectors.txt"]),
    "vectors_with_header": ("case/vectors.txt", _CASESTUDY),
    "config": ("case/case.conf", _CASESTUDY),
    "spans": ("case/spans.tsv", _CASESTUDY),
    "lexicon": ("case/lexicon.tsv", _CASESTUDY),
    "betacode_batch": ("batch.txt", ["betacode", "--file", "batch.txt"]),
}


@pytest.mark.parametrize("text_input, argv", _TEXT_INPUT_RUNS.values(), ids=_TEXT_INPUT_RUNS)
def test_a_text_input_may_start_with_a_byte_order_mark(
    tmp_path, capsys, monkeypatch, text_input, argv
):
    # the mark is the encoding's signature, not text: the run is the plain copy's
    runs = {}
    for copy in ("plain", "marked"):
        base = tmp_path / copy
        _text_inputs(base)
        if copy == "marked":
            path = base / text_input
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        given = set(base.rglob("*"))
        monkeypatch.chdir(base)
        code = main(argv)
        captured = capsys.readouterr()
        outputs = {}
        for path in sorted(set(base.rglob("*")) - given):
            if path.suffix == ".json":  # the manifest: its time and the marked file's hash differ
                manifest = json.loads(path.read_text(encoding="utf-8"))
                del manifest["timestamp"]
                manifest["inputs"].pop(text_input, None)
                outputs[path.relative_to(base)] = manifest
            elif path.is_file():
                outputs[path.relative_to(base)] = path.read_bytes()
        runs[copy] = code, captured.out, captured.err, outputs
    assert runs["plain"][0] == 0, runs["plain"]
    assert runs["marked"] == runs["plain"]


# the other commands that read a text input; the rest read one each
_MORE_READERS = {
    "lexicon": [["stats", "case/lexicon.tsv"], ["query", "case/lexicon.tsv"],
                ["constructions", "case/lexicon.tsv", "--verb", "φέρω"]],
}
# every input but the vector file, which is read as bytes, not decoded whole
_DECODED_INPUTS = {name: _TEXT_INPUT_RUNS[name] for name in _TEXT_INPUT_RUNS
                   if not name.startswith("vectors")}


@pytest.mark.parametrize("name", _DECODED_INPUTS)
def test_an_undecodable_byte_after_a_byte_order_mark_is_placed_from_the_first_byte(
    tmp_path, capsys, monkeypatch, name
):
    # each command names the byte where decoding the whole file as utf-8 does
    text_input, argv = _DECODED_INPUTS[name]
    _text_inputs(tmp_path)
    path = tmp_path / text_input
    text = path.read_bytes()
    data = codecs.BOM_UTF8 + text[:2] + b"\xff" + text[2:]
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as info:
        data.decode("utf-8")
    assert info.value.start == 5
    monkeypatch.chdir(tmp_path)
    for command in [argv, *_MORE_READERS.get(name, [])]:
        assert main(command) == 1, command
        assert capsys.readouterr() == ("", f"error: {info.value}\n"), command


def test_a_side_file_names_its_first_fault_in_file_order(tmp_path, capsys):
    # the rows stream, so a bad line before a later undecodable byte is the fault named
    path = tmp_path / "batch.txt"
    path.write_bytes(b"lo/gos\nlo/gos?\n" + b"lo/gos\n" * 20000 + b"\xff\n")
    assert main(["betacode", "--file", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2: ")


@pytest.mark.parametrize("side_file", ["batch", "manifest", "config", "spans"])
def test_a_short_side_file_names_its_first_fault_before_a_bad_byte(tmp_path, capsys, side_file):
    # the fault and the byte fall in one decoder chunk
    path = tmp_path / "side.txt"
    if side_file == "batch":
        path.write_bytes(b"lo/gos\nlo/gos?\n\xff\n")
        argv, message = ["betacode", "--file", str(path)], "line 2: "
    elif side_file == "manifest":
        path.write_bytes(b"a.xml\tHomer\n\xff\n")
        argv = ["extract", str(CORPUS_DIR), "--manifest", str(path), "-o", str(tmp_path / "l.tsv")]
        message = "manifest line 1: expected 3 tab-separated fields"
    elif side_file == "config":
        path.write_bytes(b"# case\nmin_epic_tokens\n\xff\n")
        argv, message = ["casestudy", "--config", str(path)], "config line 2: expected key=value"
    else:
        path.write_bytes(b"1\t2\t3\n\xff\n")
        config_path = _write_case_files(tmp_path)
        config = [line for line in config_path.read_text(encoding="utf-8").splitlines()
                  if not line.startswith("formula_span_path")]
        config_path.write_text("\n".join([*config, f"formula_span_path = {path}"]) + "\n",
                               encoding="utf-8")
        argv = ["casestudy", "--config", str(config_path)]
        message = "span file line 1: expected 2 tab-separated fields"
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_extract_and_casestudy_write_the_manifest_last(tmp_path, monkeypatch):
    calls = []
    for name in ("write_lexicon", "write_case_study_outputs", "_write_report", "build_manifest"):
        def spy(*args, _real=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)  # looked up in cli, where a tracer patches them

    def write_spy(destination, chunks, _real=cli.write_atomic):
        calls.append(Path(destination).name)
        return _real(destination, chunks)

    # cli's own writes, the report and the manifest; the lexicon and the
    # case-study tables are written by their modules
    monkeypatch.setattr(cli, "write_atomic", write_spy)
    config_path = _write_case_files(tmp_path)
    (tmp_path / "corpus" / "truncated.xml").write_bytes(b"<treebank>")
    assert main(["extract", str(tmp_path / "corpus"), "-o", str(tmp_path / "extracted.tsv")]) == 2
    assert main(["casestudy", "--config", str(config_path)]) == 2
    assert calls == [
        "write_lexicon",
        "_write_report", "extracted.tsv.report.tsv",
        "build_manifest", "extracted.tsv.manifest.json",
        "write_case_study_outputs",
        "_write_report", "report.tsv",
        "build_manifest", "manifest.json",
    ]


def _raise(*args, **kwargs):
    raise RuntimeError("stage failed")


@pytest.mark.parametrize("enabled", [True, False])
def test_batch_commands_pause_the_gc_and_restore_the_callers_setting(
    tmp_path, monkeypatch, enabled
):
    config_path = _write_case_files(tmp_path)
    corpus = str(tmp_path / "corpus")
    lexicon = str(tmp_path / "lexicon.tsv")
    during = []
    for name in ("extract_entries", "run_case_study", "read_lexicon"):
        real = getattr(cli, name)

        def spy(*args, real=real, **kwargs):
            during.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    collections = []
    collect = gc.collect
    monkeypatch.setattr(gc, "collect", lambda *args: collections.append(args) or collect(*args))
    runs = [
        (["extract", corpus, "-o", str(tmp_path / "lex.tsv")], 0),
        (["casestudy", "--config", str(config_path)], 0),
        (["extract", str(tmp_path / "missing"), "-o", str(tmp_path / "x.tsv")], 1),
        (["casestudy", "--config", str(tmp_path / "missing.conf")], 1),
        (["stats", lexicon, "--basic"], 0),
        (["query", lexicon, "--verb", synthetic_case.TIGHT_VERB], 0),
        (["constructions", lexicon, "--verb", synthetic_case.TIGHT_VERB], 0),
    ]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in runs:
            assert main(argv) == code
            assert gc.isenabled() is enabled
        for name, argv in (("extract_entries", runs[0][0]), ("run_case_study", runs[1][0])):
            monkeypatch.setattr(cli, name, _raise)
            with pytest.raises(RuntimeError, match="stage failed"):
                main(argv)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert len(during) > 1 and not any(during)
    assert bool(collections) is enabled  # a caller that turned the collector off gets no collection


def test_library_calls_leave_the_gc_alone(tmp_path, monkeypatch):
    for name in ("enable", "disable", "freeze", "unfreeze", "collect"):
        monkeypatch.setattr(gc, name, _raise)
    trees, _ = parse_treebank_file((CORPUS_DIR / "iliad.xml").read_bytes())
    lexicon = tmp_path / "lex.tsv"
    write_lexicon(Lexicon(extract_entries(trees)), lexicon)
    assert read_lexicon(lexicon).entries
