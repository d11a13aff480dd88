import csv
import errno
import inspect
import itertools
import os
import random
import re
import stat
import tracemalloc
import unicodedata
from collections import Counter, defaultdict

import pytest

import grcvalency.frames as frames_module
import grcvalency.lexicon as lexicon_module
import grcvalency.output as output_module
from grcvalency.frames import (
    COLUMNS, FIGURE1_COLUMNS, FrameElement, LexiconEntry, LexiconFormatError, write_lexicon,
)
from grcvalency.lexicon import (
    Lexicon,
    constructions_for_verb,
    diff_constructions,
    frame_frequencies,
    parse_frame,
    query_entries,
    read_lexicon,
    stats_basic,
    stats_by_author,
)
from grcvalency.output import write_atomic

from conftest import GOLDEN_LEXICON

PUBLISHED_ENTRY = LexiconEntry(
    author="Aeschylus",
    title="Persians",
    subdoc="703-706",
    verb="ἀνθίστημι",
    voice="medio-passive",
    sentence_id=2901046,
    root_id=7,
    frame="medio-passive_OBJ[dative],SBJ[nominative]",
    frame_fillers="medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}",
)


def _golden_rows():
    with open(GOLDEN_LEXICON, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle, delimiter="\t"))


def test_published_entry_roundtrips_bit_exactly(tmp_path):
    path = tmp_path / "one.tsv"
    write_lexicon(Lexicon([PUBLISHED_ENTRY]), path)
    text = path.read_text(encoding="utf-8")
    assert "medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}" in text
    again = tmp_path / "two.tsv"
    write_lexicon(read_lexicon(path), again)
    assert again.read_bytes() == path.read_bytes()
    assert read_lexicon(path).entries == [PUBLISHED_ENTRY]


def test_empty_lexicon_roundtrip(tmp_path):
    path = tmp_path / "empty.tsv"
    write_lexicon(Lexicon([]), path)
    assert path.read_text(encoding="utf-8") == "\t".join(COLUMNS) + "\n"
    assert read_lexicon(path).entries == []


def test_golden_file_reserializes_byte_identically(tmp_path):
    path = tmp_path / "again.tsv"
    write_lexicon(read_lexicon(GOLDEN_LEXICON), path)
    assert path.read_bytes() == GOLDEN_LEXICON.read_bytes()


def _random_lexicon(n, seed):
    rng = random.Random(seed)
    authors = [("Homer", "Iliad"), ("Hesiod", "Theogony"), ("Plato", "Euthyphro")]
    verbs = ["φέρω", "ἄγω", "λύω", "ἔχω", "τίθημι"]
    voices = ["active", "middle", "medio-passive", "passive"]
    fillers = ["δῶρον", "ναῦς", "ἵππος", "μῦθος"]
    entries = []
    for i in range(n):
        author, title = rng.choice(authors)
        voice = rng.choice(voices)
        filler = rng.choice(fillers)
        realization = rng.choice(["accusative", "dative", "genitive", "infinitive"])
        mediator = rng.choice(["", "εἰς", "ἐν"])
        prefix = f"({mediator})" if mediator else ""
        frame = f"{voice}_{prefix}OBJ[{realization}]"
        entries.append(
            LexiconEntry(
                author=author,
                title=title,
                subdoc=f"{rng.randint(1, 24)}.{rng.randint(1, 900)}",
                verb=rng.choice(verbs),
                voice=voice,
                sentence_id=100000 + i,
                root_id=rng.randint(1, 40),
                frame=frame,
                frame_fillers=frame + "{" + filler + "}",
            )
        )
    entries.sort(key=lambda e: (e.author, e.title, e.verb, e.sentence_id, e.root_id))
    return Lexicon(entries)


def test_thousand_entry_roundtrip(tmp_path):
    lexicon = _random_lexicon(1000, seed=11)
    path = tmp_path / "big.tsv"
    byte_count = write_lexicon(lexicon, path)
    assert byte_count == path.stat().st_size
    loaded = read_lexicon(path)
    assert loaded.entries == lexicon.entries


def test_figure1_layout_drops_root_id(tmp_path):
    path = tmp_path / "fig1.tsv"
    write_lexicon(Lexicon([PUBLISHED_ENTRY]), path, figure1_layout=True)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "\t".join(FIGURE1_COLUMNS)
    assert lines[1].split("\t") == [
        "Aeschylus",
        "Persians",
        "703-706",
        "ἀνθίστημι",
        "medio-passive",
        "2901046",
        "medio-passive_OBJ[dative],SBJ[nominative]",
        "medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}",
    ]


def _write_rows(path, rows):
    """A lexicon file of ``rows``: entries, or raw lines for rows that are not."""
    lines = ["\t".join(COLUMNS)]
    for row in rows:
        if not isinstance(row, str):
            row = "\t".join(str(getattr(row, column)) for column in COLUMNS)
        lines.append(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_read_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    # a row whose ids are not integers is not also judged on its frame
    good = "\t".join(
        ["Homer", "Iliad", "1.1", "φέρω", "active", "7", "2", "active_OBJ))", "x"]
    )
    _write_rows(path, ["too\tfew", good.replace("7", "seven", 1)])
    with pytest.raises(LexiconFormatError) as info:
        read_lexicon(path)
    assert info.value.row_errors == [
        (2, "expected 9 columns, got 2"),
        (3, "sentence_id and root_id must be integers"),
    ]
    assert list(inspect.signature(read_lexicon).parameters) == ["source"]


def test_a_good_file_reads_and_one_bad_row_rejects_it(tmp_path):
    path = tmp_path / "good.tsv"
    write_lexicon(Lexicon([PUBLISHED_ENTRY]), path)
    lexicon = read_lexicon(path)
    assert lexicon.entries == [PUBLISHED_ENTRY]
    assert not hasattr(lexicon, "row_errors")
    path.write_text(path.read_text(encoding="utf-8") + "too\tfew\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError) as info:
        read_lexicon(path)
    assert info.value.row_errors == [(3, "expected 9 columns, got 2")]


def test_write_rejects_fields_that_break_the_layout(tmp_path):
    # a tab and every character that str.splitlines, and so read_lexicon, breaks a row on
    splitting = [chr(i) for i in range(0x110000) if len(f"a{chr(i)}b".splitlines()) > 1]
    assert len(splitting) == 10
    for character in ["\t", *splitting]:
        for field, value in itertools.product(
            COLUMNS, (f"{character}Persians", f"Per{character}sians", f"Persians{character}")
        ):
            broken = PUBLISHED_ENTRY._replace(**{field: value})
            for figure1_layout in (False, True):
                if figure1_layout and field not in FIGURE1_COLUMNS:
                    continue  # root_id is not written in that layout
                with pytest.raises(ValueError, match="TSV") as info:
                    write_lexicon([broken], tmp_path / "broken.tsv", figure1_layout)
                assert str(info.value) == f"field would corrupt the TSV layout: {value!r}"
    assert list(tmp_path.iterdir()) == []
    # a column the layout leaves out is not judged
    broken = PUBLISHED_ENTRY._replace(root_id="7\t8")
    path = tmp_path / "fig1.tsv"
    write_lexicon([broken], path, figure1_layout=True)
    fig1 = tmp_path / "fig1_clean.tsv"
    write_lexicon([PUBLISHED_ENTRY], fig1, figure1_layout=True)
    assert path.read_bytes() == fig1.read_bytes()


@pytest.mark.parametrize("character", ["\t", "\u2028"])
def test_a_late_layout_break_keeps_the_old_file_and_no_temp_file(tmp_path, character):
    # rows stream into the temp file, so the break is found after 4,999 are written
    entries = list(_random_lexicon(6000, seed=5))
    value = entries[4999].verb + character
    entries[4999] = entries[4999]._replace(verb=value)
    path = tmp_path / "lexicon.tsv"
    write_lexicon(Lexicon([PUBLISHED_ENTRY]), path)
    old = path.read_bytes()
    with pytest.raises(ValueError) as info:
        write_lexicon(entries, path)
    assert str(info.value) == f"field would corrupt the TSV layout: {value!r}"
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["lexicon.tsv"]


def test_write_lexicon_streams_rather_than_building_the_file(tmp_path):
    entries = list(_random_lexicon(20000, seed=9))
    path = tmp_path / "lexicon.tsv"
    tracemalloc.start()
    try:
        written = write_lexicon(entries, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == path.stat().st_size
    assert peak < written / 4, (peak, written)


def test_columns_are_the_entry_fields_in_the_golden_header_order():
    assert COLUMNS == LexiconEntry._fields
    header = GOLDEN_LEXICON.read_text(encoding="utf-8").splitlines()[0]
    assert COLUMNS == tuple(header.split("\t"))
    assert FIGURE1_COLUMNS == tuple(name for name in COLUMNS if name != "root_id")


def test_a_rows_nfc_is_the_nfc_of_each_field(tmp_path):
    # a tab is a starter that decomposes to itself and lies in no character's
    # decomposition, so NFC never composes or reorders across it
    assert unicodedata.combining("\t") == 0
    assert unicodedata.decomposition("\t") == ""
    assert not any(
        "0009" in unicodedata.decomposition(chr(i)).split() for i in range(0x110000)
    )
    # every combining mark on either side of the tab, after a letter it
    # composes with and before a second mark it would reorder with
    for mark in (chr(i) for i in range(0x110000) if unicodedata.combining(chr(i))):
        fields = ["α" + mark, mark + "\u0301ε", "\u1100", "\u1161" + mark]
        row = unicodedata.normalize("NFC", "\t".join(fields))
        assert row == "\t".join(unicodedata.normalize("NFC", f) for f in fields)
    # a row written from NFD fields is the row of their NFC forms
    nfd = PUBLISHED_ENTRY._replace(
        **{
            name: unicodedata.normalize("NFD", getattr(PUBLISHED_ENTRY, name))
            for name in ("subdoc", "verb", "frame", "frame_fillers")
        },
    )
    assert nfd.verb != PUBLISHED_ENTRY.verb
    decomposed, composed = tmp_path / "nfd.tsv", tmp_path / "nfc.tsv"
    write_lexicon([nfd], decomposed)
    write_lexicon([PUBLISHED_ENTRY], composed)
    assert decomposed.read_bytes() == composed.read_bytes()


def test_lexicon_reads_frames_with_the_frame_codec():
    # Lexicon looks parse_frame up in lexicon; both names are one codec
    assert lexicon_module.parse_frame is frames_module.parse_frame


def test_write_atomic_replaces_with_the_mode_open_would_give(tmp_path):
    probe = tmp_path / "probe"
    probe.write_bytes(b"")
    target = tmp_path / "out.tsv"
    target.write_bytes(b"old\n")
    os.chmod(target, 0o600)
    assert write_atomic(target, ["new\n"]) == 4
    assert target.read_bytes() == b"new\n"
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(probe.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv", "probe"]


def test_write_atomic_into_a_missing_directory_names_the_directory(tmp_path):
    missing = tmp_path / "nonexistent"
    with pytest.raises(FileNotFoundError) as caught:
        write_atomic(missing / "out.tsv", ["new\n"])
    assert str(caught.value) == f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{missing}'"


def test_write_atomic_onto_a_directory_names_the_destination(tmp_path):
    destination = tmp_path / "out.tsv"
    destination.mkdir()
    with pytest.raises(OSError) as caught:
        write_atomic(destination, ["new\n"])
    assert caught.value.filename == str(destination)
    assert caught.value.filename2 is None  # no temp name the user never chose
    assert str(caught.value).endswith(f": '{destination}'")
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]
    assert list(destination.iterdir()) == []


def _full_disk_after(room, real_fdopen):
    """An ``os.fdopen`` whose files take ``room`` writes, each reaching the
    disk, and then fail the next one as a full disk would."""
    def fdopen(fd, mode):
        handle = real_fdopen(fd, mode)

        class FillingWriter:
            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                handle.close()

            def write(self, data):
                nonlocal room
                if not room:
                    raise OSError(errno.ENOSPC, "No space left on device")
                room -= 1
                handle.write(data)
                handle.flush()

            def writelines(self, lines):
                for data in lines:
                    self.write(data)

        return FillingWriter()

    return fdopen


def _refuse(*args):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


@pytest.mark.parametrize("stage", ["write", "fsync", "chmod", "replace"])
def test_write_atomic_failure_keeps_the_old_file_and_no_temp_file(tmp_path, monkeypatch, stage):
    target = tmp_path / "out.tsv"
    target.write_bytes(b"old\n")
    if stage == "write":
        monkeypatch.setattr(output_module.os, "fdopen", _full_disk_after(3, os.fdopen))
    else:
        monkeypatch.setattr(output_module.os, stage, _refuse)
    chunks = iter(["νέα γραμμή\n"] * 1000)
    with pytest.raises(OSError):
        write_atomic(target, chunks)
    monkeypatch.undo()
    if stage == "write":  # three chunks reached the disk, the fourth failed, the rest unread
        assert len(list(chunks)) == 1000 - 4
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


def test_write_atomic_syncs_the_file_then_renames_then_syncs_the_directory(
    tmp_path, monkeypatch
):
    calls = []
    fsync, replace = os.fsync, os.replace

    def record_fsync(fd):
        info = os.fstat(fd)
        calls.append(("directory fsync" if stat.S_ISDIR(info.st_mode) else "file fsync", info.st_ino))
        fsync(fd)

    def record_replace(source, destination):
        calls.append(("replace", os.stat(source).st_ino))
        replace(source, destination)

    monkeypatch.setattr(output_module.os, "fsync", record_fsync)
    monkeypatch.setattr(output_module.os, "replace", record_replace)
    target = tmp_path / "out.tsv"
    target.write_bytes(b"old\n")
    assert write_atomic(target, ["new\n"]) == 4
    monkeypatch.undo()
    written = target.stat().st_ino
    assert calls == [
        ("file fsync", written),
        ("replace", written),
        ("directory fsync", tmp_path.stat().st_ino),
    ]
    assert target.read_bytes() == b"new\n"


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "hdr.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError):
        read_lexicon(path)
    empty = tmp_path / "none.tsv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(LexiconFormatError):
        read_lexicon(empty)


def _ending_a_row_before_each_chunk_end(rows, newline, chunk=4096):
    """``rows``, each ended by ``newline``, with a row's subdoc padded before
    each multiple of ``chunk`` bytes so that a newline starts on the last
    byte of every chunk (a golden row is under 400 bytes)."""
    lines, size, boundary = [], 0, chunk
    for row in rows:
        end = size + len(row.encode("utf-8"))
        if boundary - 1 - end < 400:
            author, title, subdoc, rest = row.split("\t", 3)
            row = "\t".join([author, title, subdoc + "." * (boundary - 1 - end), rest])
            end, boundary = boundary - 1, boundary + chunk
        lines.append(row + newline)
        size = end + len(newline.encode("utf-8"))
    return "".join(lines)


def _read_outcome(path):
    """The entries read from ``path``, or the line errors that reject it."""
    try:
        return read_lexicon(path).entries
    except LexiconFormatError as exc:
        return exc.row_errors


def test_the_streamed_read_gives_the_rows_of_splitlines(tmp_path, capsys):
    from grcvalency.cli import main

    # NFC is taken per physical line: no line break composes or reorders
    breaks = [chr(i) for i in range(0x110000) if len(chr(i).join("ab").splitlines()) == 2]
    assert len(breaks) == 10
    decomposed_from = {
        int(code, 16)
        for i in range(0x110000)
        for code in unicodedata.decomposition(chr(i)).split()
        if not code.startswith("<")
    }
    for char in breaks:
        assert unicodedata.combining(char) == 0 and unicodedata.decomposition(char) == ""
        assert ord(char) not in decomposed_from
    header, *golden_rows = GOLDEN_LEXICON.read_text(encoding="utf-8").splitlines()
    rows = [header] + golden_rows * 20  # about 150 KiB, so many decoder chunks
    with_separator = list(rows)
    with_separator[900] = with_separator[900].replace("\t", "\u2028", 1)
    cases = {
        "crlf": (rows, "\r\n"),
        "cr": (rows, "\r"),
        "u2028_in_a_row": (with_separator, "\r\n"),
        "nel_rows": (rows, "\x85"),
    }
    outcomes = {}
    for name, (lines, newline) in cases.items():
        text = _ending_a_row_before_each_chunk_end(lines, newline)
        streamed, whole = tmp_path / f"{name}.tsv", tmp_path / f"{name}-lf.tsv"
        streamed.write_bytes(text.encode("utf-8"))
        whole.write_bytes(("\n".join(text.splitlines()) + "\n").encode("utf-8"))
        outcomes[name] = _read_outcome(streamed)
        assert outcomes[name] == _read_outcome(whole), name
    assert len(outcomes["crlf"]) == len(outcomes["cr"]) == 20 * len(golden_rows)
    # the separator cuts file line 901 in two, and every later row moves down one
    assert outcomes["u2028_in_a_row"] == [
        (901, "expected 9 columns, got 1"),
        (902, "expected 9 columns, got 8"),
    ]

    # an undecodable byte is named from the file's start, not from a chunk's,
    # and wins over a bad header as it did when the whole text was decoded
    good = GOLDEN_LEXICON.read_bytes()
    body = good.split(b"\n", 1)[1] * 12
    for head in (b"\t".join(name.encode() for name in COLUMNS), b"author\ttitle"):
        data = head + b"\n" + body + b"Homer\t\xff\n" + body
        path = tmp_path / "undecodable.tsv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as info:
            data.decode("utf-8")
        assert info.value.start > 65536
        assert main(["stats", str(path)]) == 1
        lineno = data[: info.value.start].count(b"\n") + 1
        assert capsys.readouterr() == ("", f"error: {path}: line {lineno}: {info.value}\n")


def test_indexes_are_consistent(sample_lexicon):
    entries = sample_lexicon.entries
    verbs = sorted({e.verb for e in entries})
    rows = {verb: sample_lexicon.verb_rows(verb).tolist() for verb in verbs}
    # every entry sits in its own verb's rows, each verb's rows in entry order
    assert sorted(itertools.chain.from_iterable(rows.values())) == list(range(len(entries)))
    for verb in verbs:
        assert rows[verb] == [i for i, e in enumerate(entries) if e.verb == verb]
        assert query_entries(sample_lexicon, verb=verb) == [entries[i] for i in rows[verb]]
    assert sample_lexicon.verb_rows("οὐδαμός").tolist() == []


def test_stats_basic_against_brute_force(sample_lexicon):
    rows = _golden_rows()
    stats = stats_basic(sample_lexicon)
    assert stats == {
        "entries": len(rows),
        "unique_verb_lemmas": len({r["verb"] for r in rows}),
        "unique_frames": len({r["frame"] for r in rows}),
        "unique_frame_fillers": len({r["frame_fillers"] for r in rows}),
    }
    assert stats["entries"] == 63


def test_stats_basic_empty():
    assert stats_basic(Lexicon([])) == {
        "entries": 0,
        "unique_verb_lemmas": 0,
        "unique_frames": 0,
        "unique_frame_fillers": 0,
    }


def test_stats_by_author_partitions_the_lexicon(sample_lexicon):
    rows = _golden_rows()
    expected = sorted(Counter(r["author"] for r in rows).items())
    table = stats_by_author(sample_lexicon)
    assert table[:-1] == expected
    assert table[-1] == ("TOTAL", len(rows))
    assert sum(count for _, count in table[:-1]) == stats_basic(sample_lexicon)["entries"]


def test_stats_by_author_single_author():
    lexicon = Lexicon([PUBLISHED_ENTRY])
    assert stats_by_author(lexicon) == [("Aeschylus", 1), ("TOTAL", 1)]


def test_frame_frequencies_against_brute_force(sample_lexicon):
    rows = _golden_rows()
    counter = Counter(r["frame"] for r in rows)
    ranked = frame_frequencies(sample_lexicon)
    assert ranked == sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    assert sum(count for _, count in ranked) == len(rows)
    counts = [count for _, count in ranked]
    assert counts == sorted(counts, reverse=True)
    assert frame_frequencies(sample_lexicon, top_k=0) == []
    assert frame_frequencies(sample_lexicon, top_k=3) == ranked[:3]
    assert ranked[0] == ("active_SBJ[nominative]", 21)


def _counter_aggregates(entries, top_k):
    """stats_basic, stats_by_author and frame_frequencies by plain counting."""
    frames = Counter(e.frame for e in entries)
    ranked = sorted(frames.items(), key=lambda item: (-item[1], item[0]))
    return (
        {
            "entries": len(entries),
            "unique_verb_lemmas": len({e.verb for e in entries}),
            "unique_frames": len(frames),
            "unique_frame_fillers": len({e.frame_fillers for e in entries}),
        },
        sorted(Counter(e.author for e in entries).items()) + [("TOTAL", len(entries))],
        ranked if top_k is None else ranked[:top_k],
    )


@pytest.mark.parametrize("size", [0, 1, 9, 80, 700])
def test_aggregates_match_counters(size):
    for seed in range(4):
        lexicon = _random_lexicon(size, seed) if size else Lexicon([])
        distinct = len({e.frame for e in lexicon.entries})
        for top_k in (None, 0, 1, distinct + 5):
            got = (
                stats_basic(lexicon),
                stats_by_author(lexicon),
                frame_frequencies(lexicon, top_k),
            )
            assert got == _counter_aggregates(lexicon.entries, top_k), (seed, top_k)
            counts = list(got[0].values()) + [n for _, n in got[1] + got[2]]
            assert all(type(n) is int for n in counts)


def _counter_constructions(entries, verb, min_count, min_authors):
    """constructions_for_verb by plain counting, as (frame, count, authors)."""
    counts = Counter()
    authors = defaultdict(set)
    for entry in entries:
        if entry.verb == verb:
            counts[entry.frame] += 1
            authors[entry.frame].add(entry.author)
    kept = [
        (frame, count, authors[frame])
        for frame, count in counts.items()
        if count >= min_count and len(authors[frame]) >= min_authors
    ]
    return sorted(kept, key=lambda record: (-record[1], record[0]))


@pytest.mark.parametrize("size", [0, 1, 9, 80, 700])
def test_constructions_match_counters(size):
    for seed in range(4):
        lexicon = _random_lexicon(size, seed) if size else Lexicon([])
        verbs = sorted({e.verb for e in lexicon.entries}) + ["οὐκἔστι"]
        for verb in verbs:
            for min_count, min_authors in ((1, 1), (2, 1), (1, 2), (3, 2)):
                got = constructions_for_verb(lexicon, verb, min_count, min_authors)
                want = _counter_constructions(lexicon.entries, verb, min_count, min_authors)
                assert [(r.frame, r.count, r.authors) for r in got] == want, (seed, verb)
                assert all(r.verb == verb and type(r.count) is int for r in got)
            everything = _counter_constructions(lexicon.entries, verb, 1, 1)
            known = [frame for frame, _, _ in everything[::2]] + ["active_SBJ[vocative]"]
            only_lexicon, only_known = diff_constructions(lexicon, verb, known)
            assert [(r.frame, r.count, r.authors) for r in only_lexicon] == [
                record for record in everything if record[0] not in known
            ]
            assert only_known == ["active_SBJ[vocative]"]
            # a caller that changes a returned record changes no later answer
            for record in constructions_for_verb(lexicon, verb):
                record.authors.add("Anonymous")
                record.count += 100
            got = constructions_for_verb(lexicon, verb)
            assert [(r.frame, r.count, r.authors) for r in got] == everything


def test_query_no_filters_returns_everything(sample_lexicon):
    assert query_entries(sample_lexicon) == sample_lexicon.entries


def test_query_by_verb_author_realization(sample_lexicon):
    hits = query_entries(sample_lexicon, verb="αἱρέω", realization="accusative", author="Homer")
    assert sorted(e.sentence_id for e in hits) == [1024, 1038]
    assert query_entries(sample_lexicon, realization="genitive") == query_entries(
        sample_lexicon, verb="αἱρέω", realization="genitive"
    )


def test_query_mediator_matches_hand_scan(sample_lexicon):
    hits = query_entries(sample_lexicon, mediator="εἰς")
    assert sorted(e.sentence_id for e in hits) == [1044, 1045, 2006, 3006]
    assert query_entries(sample_lexicon, mediator="ἐν", author="Homer")[0].sentence_id == 1046


def test_query_conjunction_equals_intersection(sample_lexicon):
    combined = query_entries(sample_lexicon, verb="φέρω", voice="active", frame_contains="OBJ")
    by_verb = set(id(e) for e in query_entries(sample_lexicon, verb="φέρω"))
    by_voice = set(id(e) for e in query_entries(sample_lexicon, voice="active"))
    by_frame = set(id(e) for e in query_entries(sample_lexicon, frame_contains="OBJ"))
    expected = [
        e for e in sample_lexicon.entries if id(e) in (by_verb & by_voice & by_frame)
    ]
    assert combined == expected


def test_constructions_counts_and_authors(sample_lexicon):
    records = constructions_for_verb(sample_lexicon, "φέρω")
    assert sum(r.count for r in records) == len(sample_lexicon.verb_rows("φέρω")) == 10
    counts = {r.frame: r.count for r in records}
    assert counts["active_OBJ[accusative],SBJ[nominative]"] == 3
    assert counts["active_OBJ[accusative]"] == 2
    by_frame = {r.frame: r.authors for r in records}
    assert by_frame["active_OBJ[accusative]"] == {"Homer", "Hesiod"}
    assert [r.count for r in records] == sorted((r.count for r in records), reverse=True)


def test_constructions_thresholds(sample_lexicon):
    multi_author = constructions_for_verb(sample_lexicon, "φέρω", min_authors=2)
    assert [r.frame for r in multi_author] == ["active_OBJ[accusative]"]
    frequent = constructions_for_verb(sample_lexicon, "φέρω", min_count=2)
    assert {r.frame for r in frequent} == {
        "active_SBJ[nominative]",
        "active_OBJ[accusative],SBJ[nominative]",
        "active_OBJ[accusative]",
    }
    assert constructions_for_verb(sample_lexicon, "φέρω", min_count=10**9) == []
    assert constructions_for_verb(sample_lexicon, "οὐκἔστι") == []
    for record in constructions_for_verb(sample_lexicon, "ἄγω"):
        assert record.count >= len(record.authors) >= 1


def test_constructions_against_brute_force(sample_lexicon):
    rows = [r for r in _golden_rows() if r["verb"] == "ἄγω"]
    counter = Counter(r["frame"] for r in rows)
    authors = defaultdict(set)
    for r in rows:
        authors[r["frame"]].add(r["author"])
    records = constructions_for_verb(sample_lexicon, "ἄγω")
    assert {r.frame: (r.count, frozenset(r.authors)) for r in records} == {
        frame: (count, frozenset(authors[frame])) for frame, count in counter.items()
    }


def test_diff_constructions(sample_lexicon):
    all_frames = [r.frame for r in constructions_for_verb(sample_lexicon, "φέρω")]
    only_lex, only_known = diff_constructions(sample_lexicon, "φέρω", all_frames)
    assert only_lex == [] and only_known == []
    only_lex, only_known = diff_constructions(sample_lexicon, "φέρω", [])
    assert [r.frame for r in only_lex] == all_frames
    assert only_known == []
    known = [
        "active_SBJ[nominative]",
        "active_OBJ[accusative]",
        "middle_OBJ[genitive]",
    ]
    only_lex, only_known = diff_constructions(sample_lexicon, "φέρω", known)
    assert "active_SBJ[nominative]" not in {r.frame for r in only_lex}
    assert len(only_lex) == len(all_frames) - 2
    assert only_known == ["middle_OBJ[genitive]"]


def test_parse_frame_elements():
    voice, elements = parse_frame("medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}")
    assert voice == "medio-passive"
    assert [e.label for e in elements] == ["OBJ", "SBJ"]
    assert elements[0].filler == "σύ"
    voice, elements = parse_frame("active_(εἰς)OBJ_CO[accusative]")
    assert elements[0].mediator == "εἰς"
    assert elements[0].base_relation == "OBJ"
    with pytest.raises(LexiconFormatError):
        parse_frame("no-underscore")
    with pytest.raises(LexiconFormatError):
        parse_frame("active_OBJ[")
    with pytest.raises(LexiconFormatError):
        parse_frame("active_")
    with pytest.raises(ValueError):
        frame_frequencies(Lexicon([]), top_k=-1)


_REFERENCE_ELEMENT = re.compile(
    r"^(?:\((?P<mediator>[^()]*)\))?"
    r"(?P<label>[A-Z][A-Z_]*)"
    r"\[(?P<realization>[^\[\]]+)\]"
    r"(?:\{(?P<filler>[^{}]*)\})?$"
)


def _reference_parse_frame(frame):
    """The chunk-by-chunk parser, the oracle for the frame grammar: split at
    the first "_" and at every ",", then match each chunk as one element."""
    voice, sep, rest = frame.partition("_")
    if not sep or not voice or not rest:
        raise LexiconFormatError(f"malformed frame string: {frame!r}")
    elements = []
    for chunk in rest.split(","):
        match = _REFERENCE_ELEMENT.match(chunk)
        if match is None:
            raise LexiconFormatError(f"malformed frame element: {chunk!r} in {frame!r}")
        elements.append(FrameElement(**match.groupdict()))
    return voice, tuple(elements)


def _frame_outcome(parse, frame):
    try:
        return parse(frame)
    except LexiconFormatError as exc:
        return str(exc)


# frame delimiters, "_", letters, spaces and tabs
_FRAME_PIECES = list("()[]{},_") + ["A", "Z", "a", "α", " ", "\t"]


def _mutate(rng, frame, frames):
    """One to three edits: insert, delete or replace a character, or append
    the elements of another frame."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(frame))
        edit = rng.randrange(4)
        if edit == 0:
            frame = frame[:at] + rng.choice(_FRAME_PIECES) + frame[at:]
        elif edit == 1:
            frame = frame[:at] + frame[at + 1 :]
        elif edit == 2:
            frame = frame[:at] + rng.choice(_FRAME_PIECES) + frame[at + 1 :]
        else:
            frame += "," + rng.choice(frames).partition("_")[2]
    return frame


def test_the_frame_grammar_agrees_with_the_chunk_parser():
    rng = random.Random(2026)
    entries = _random_lexicon(300, seed=26).entries
    frames = sorted({text for entry in entries for text in (entry.frame, entry.frame_fillers)})
    accepted = 0
    for _ in range(20000):
        frame = _mutate(rng, rng.choice(frames), frames)
        outcome = _frame_outcome(parse_frame, frame)
        assert outcome == _frame_outcome(_reference_parse_frame, frame), frame
        accepted += isinstance(outcome, tuple)
    assert 4000 < accepted < 16000
    # the one disagreement: "$" let a chunk end in "\n", which no lexicon row holds
    assert _reference_parse_frame("active_OBJ[accusative]\n")[0] == "active"
    assert _frame_outcome(parse_frame, "active_OBJ[accusative]\n") == (
        "malformed frame element: 'OBJ[accusative]\\n' in 'active_OBJ[accusative]\\n'"
    )


_QUERY_FILTERS = ("verb", "author", "title", "voice", "frame_contains", "realization", "mediator")


def _nfc(text):
    return unicodedata.normalize("NFC", text)


def _frame_lexicon(rng):
    """A small lexicon whose entries share a few frames, and the
    (mediator, realization) pairs of each frame as built."""
    works = [
        ("Homer", "Iliad"),
        ("Homer", "Odyssey"),
        ("Hesiod", "Theogony"),
        (_nfc("Ἡρόδοτος"), _nfc("Ἱστορίαι")),
    ]
    verbs = [_nfc(v) for v in ("φέρω", "ἄγω", "λύω", "αἱρέω", "δίδωμι")]
    mediators = [None, None, _nfc("εἰς"), _nfc("ἐν"), _nfc("ὑπό")]
    realizations = ["accusative", "dative", "genitive", "infinitive", _nfc("ὅτι")]
    frames = {}
    for _ in range(rng.randint(1, 6)):
        voice = rng.choice(["active", "middle", "medio-passive"])
        elements = [
            (rng.choice(mediators), rng.choice(realizations))
            for _ in range(rng.randint(1, 3))
        ]
        chunks = [
            (f"({m})" if m else "") + f"{label}[{r}]"
            for (m, r), label in zip(elements, rng.sample(["OBJ", "SBJ", "PNOM", "OBJ_CO"], 3))
        ]
        frames[f"{voice}_" + ",".join(chunks)] = elements
    entries = []
    for i in range(rng.randint(0, 30)):
        author, title = rng.choice(works)
        frame = rng.choice(list(frames))
        entries.append(
            LexiconEntry(
                author=author,
                title=title,
                subdoc=f"1.{i}",
                verb=rng.choice(verbs[:4]),  # the fifth verb is never indexed
                voice=frame.partition("_")[0],
                sentence_id=i,
                root_id=1,
                frame=frame,
                frame_fillers=frame,
            )
        )
    return Lexicon(entries), frames, verbs


_SLOT = {"mediator": 0, "realization": 1}  # position in a frame's (mediator, realization) pairs


def _reference_query(entries, frames, **filters):
    """Plain scan: an entry is kept when every given filter holds for it."""

    def holds(entry, name, value):
        if name == "frame_contains":
            return value in entry.frame
        if name in _SLOT:
            return value in [pair[_SLOT[name]] for pair in frames[entry.frame]]
        return getattr(entry, name) == value

    return [e for e in entries if all(holds(e, name, v) for name, v in filters.items())]


def _filter_value(rng, name, lexicon, frames, verbs):
    """A value for one filter: usually one the lexicon has, sometimes none."""
    if name == "verb":
        return rng.choice(verbs)
    if name == "frame_contains":
        frame = rng.choice(list(frames))
        start = rng.randrange(len(frame))
        return rng.choice([frame[start:start + rng.randint(0, 8)], "OCOMP"])
    if name in _SLOT:
        present = [pair[_SLOT[name]] for pairs in frames.values() for pair in pairs]
        absent = "vocative" if name == "realization" else _nfc("πρός")
        return rng.choice([value for value in present if value is not None] + [absent])
    if not lexicon.entries or rng.random() < 0.2:
        return {"author": "Plato", "title": "Euthyphro", "voice": "passive"}[name]
    return getattr(rng.choice(lexicon.entries), name)


def test_query_matches_brute_force_for_every_filter_subset():
    rng = random.Random(20260418)
    for _ in range(200):
        lexicon, frames, verbs = _frame_lexicon(rng)
        verb_rows = {verb: lexicon.verb_rows(verb).tolist() for verb in verbs}
        assert verb_rows == {
            verb: [i for i, e in enumerate(lexicon.entries) if e.verb == verb] for verb in verbs
        }
        by_verb = {verb: query_entries(lexicon, verb=verb) for verb in verbs}
        every_subset = (
            {name: _filter_value(rng, name, lexicon, frames, verbs) for name in names}
            for size in range(len(_QUERY_FILTERS) + 1)
            for names in itertools.combinations(_QUERY_FILTERS, size)
        )
        for filters in every_subset:
            got = query_entries(lexicon, **filters)
            want = _reference_query(lexicon.entries, frames, **filters)
            assert [id(e) for e in got] == [id(e) for e in want], filters
            assert got is not lexicon.entries
            assert all(got is not hits for hits in by_verb.values())
        assert {verb: lexicon.verb_rows(verb).tolist() for verb in verbs} == verb_rows
        for verb in verbs:
            again = query_entries(lexicon, verb=verb)
            assert [id(e) for e in again] == [id(e) for e in by_verb[verb]]


def _entry(verb, author, frame):
    return PUBLISHED_ENTRY._replace(verb=verb, author=author, voice="active", frame=frame)


def test_read_names_each_malformed_frame_at_its_first_line(tmp_path):
    # a frame_fillers string is judged by the same rule as a frame
    path = tmp_path / "frames.tsv"
    bad_fillers = _entry("φέρω", "Homer", "active_OBJ[accusative]")._replace(
        frame_fillers="active_OBJ[accusative]{"
    )
    _write_rows(
        path,
        [
            _entry("φέρω", "Homer", "active_OBJ[accusative]"),
            _entry("ἄγω", "Hesiod", "active_OBJ["),
            "too\tfew",
            bad_fillers,
            _entry("φέρω", "Homer", "active_(εἰς)OBJ[accusative]"),
            _entry("λύω", "Homer", "active_SBJ)"),
            _entry("ἄγω", "Homer", "active_OBJ["),
            _entry("λύω", "Hesiod", "active_SBJ)"),
            bad_fillers,
        ],
    )
    with pytest.raises(LexiconFormatError) as info:
        read_lexicon(path)
    assert info.value.row_errors == [
        (3, "malformed frame element: 'OBJ[' in 'active_OBJ['"),
        (4, "expected 9 columns, got 2"),
        (5, "malformed frame element: 'OBJ[accusative]{' in 'active_OBJ[accusative]{'"),
        (7, "malformed frame element: 'SBJ)' in 'active_SBJ)'"),
    ]
    assert str(info.value).startswith(
        f"{path}: line 3: malformed frame element: 'OBJ[' in 'active_OBJ['; line 4"
    )


def test_a_rejection_names_ten_lines_and_counts_the_rest(tmp_path):
    path = tmp_path / "short.tsv"
    _write_rows(path, [f"row{n}\tshort" for n in range(12)])
    with pytest.raises(LexiconFormatError) as info:
        read_lexicon(path)
    assert info.value.row_errors == [(n, "expected 9 columns, got 2") for n in range(2, 14)]
    assert str(info.value) == (
        f"{path}: "
        + "; ".join(f"line {n}: expected 9 columns, got 2" for n in range(2, 12))
        + "; ... (12 rows total)"
    )


def test_empty_rows_are_skipped_and_later_rows_keep_their_line_numbers(tmp_path):
    path = tmp_path / "blank.tsv"
    _write_rows(path, [PUBLISHED_ENTRY, "", "", PUBLISHED_ENTRY])
    assert read_lexicon(path).entries == [PUBLISHED_ENTRY, PUBLISHED_ENTRY]
    _write_rows(path, [PUBLISHED_ENTRY, "", "", _entry("ἄγω", "Homer", "active_OBJ[")])
    with pytest.raises(LexiconFormatError) as info:
        read_lexicon(path)
    assert info.value.row_errors == [(5, "malformed frame element: 'OBJ[' in 'active_OBJ['")]


def test_a_malformed_frame_rejects_the_file_with_the_same_message_every_time(tmp_path):
    # the first malformed entry's frame sorts after the second's; lines keep file order
    path = tmp_path / "frames.tsv"
    _write_rows(
        path, [_entry("ἄγω", "Hesiod", "active_SBJ)"), _entry("ἄγω", "Homer", "active_OBJ[")]
    )
    messages = []
    for _ in range(2):
        with pytest.raises(LexiconFormatError) as info:
            read_lexicon(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == (
        f"{path}: line 2: malformed frame element: 'SBJ)' in 'active_SBJ)'; "
        "line 3: malformed frame element: 'OBJ[' in 'active_OBJ['"
    )


def test_query_on_a_built_lexicon_raises_for_a_frame_it_cannot_parse():
    # only a Lexicon built in memory can hold a frame that does not parse;
    # building it parses every frame, so it raises before any query runs
    with pytest.raises(LexiconFormatError, match=r"'active_OBJ\['"):
        Lexicon(
            [_entry("φέρω", "Homer", "active_OBJ[accusative]"), _entry("ἄγω", "Hesiod", "active_OBJ[")]
        )
    lexicon = Lexicon([_entry("φέρω", "Homer", "active_OBJ[accusative]")])
    assert query_entries(lexicon, verb="φέρω", realization="accusative") == lexicon.entries


def test_each_frame_is_parsed_once_over_many_queries(monkeypatch):
    parsed = []

    def counting(frame):
        parsed.append(frame)
        return parse_frame(frame)

    monkeypatch.setattr(lexicon_module, "parse_frame", counting)
    lexicon = _random_lexicon(300, seed=3)
    # building the lexicon parses each distinct frame once ...
    assert sorted(parsed) == sorted({e.frame for e in lexicon.entries})
    parsed.clear()
    # ... and no query parses one again
    query_entries(lexicon, frame_contains="dative")
    query_entries(lexicon, frame_contains="dative", mediator="ἐν")
    for realization in ("dative", "accusative", "genitive", "vocative"):
        query_entries(lexicon, realization=realization)
    query_entries(lexicon, verb="φέρω", author="Homer", mediator="εἰς")
    constructions_for_verb(lexicon, "φέρω")
    assert parsed == []


def test_frame_contains_alone_never_parses(monkeypatch):
    def refuse(frame):
        raise AssertionError(f"parsed {frame!r}")

    lexicon = Lexicon(
        [
            _entry("φέρω", "Homer", "active_OBJ[accusative]"),
            _entry("ἄγω", "Homer", "active_SBJ[nominative]"),
        ]
    )
    monkeypatch.setattr(lexicon_module, "parse_frame", refuse)
    assert query_entries(lexicon, frame_contains="OBJ[") == lexicon.entries[:1]
    assert query_entries(lexicon, frame_contains="active", verb="ἄγω") == lexicon.entries[1:]


def test_query_parses_each_distinct_candidate_frame_once(monkeypatch):
    parsed = []

    def counting(frame):
        parsed.append(frame)
        return parse_frame(frame)

    monkeypatch.setattr(lexicon_module, "parse_frame", counting)
    lexicon = _random_lexicon(1000, seed=11)
    candidates = [e.frame for e in lexicon.entries if "εἰς" in e.frame]
    assert sorted(set(candidates)) == sorted(set(parsed) & set(candidates))
    assert len(parsed) == len(set(parsed))
    assert len(candidates) > 10 * len(set(candidates))
    # the build parsed each candidate once; the query parses none again
    parsed.clear()
    hits = query_entries(lexicon, frame_contains="εἰς", realization="dative")
    assert parsed == []
    assert hits == [
        e for e in lexicon.entries if e.frame.endswith("OBJ[dative]") and "εἰς" in e.frame
    ]
