import gc
import io
import random
import re
import unicodedata
import xml.etree.ElementTree as ET

import pytest

from grcvalency.betacode import BetaCodeError
from grcvalency.treebank import (
    LAYOUT_BREAK,
    SentenceTree,
    TreebankParseError,
    ValidationReport,
    WordIssue,
    WordNode,
    _byte_offset,
    _parse_word,
    load_manifest,
    normalize_lemma,
    parse_treebank_file,
    validate_sentence,
)
from grcvalency.postag import decode_postag

from conftest import CORPUS_DIR, MANIFEST_FILE

# word elements per sentence of the fifty-sentence sample, in file order
ILIAD_TOKEN_COUNTS = (
    [2] * 20 + [3] * 15 + [3] * 5 + [2, 1, 2] + [4, 3, 3] + [4, 4] + [3] + [2]
)


def _node(tree, token_id):
    return tree.nodes[tree.positions[token_id]]


def test_parse_excerpt_sentence():
    trees, issues = parse_treebank_file(
        (CORPUS_DIR / "persians.xml").read_bytes(), fallback_meta=("Aeschylus", "Persians")
    )
    assert not issues
    assert len(trees) == 3
    tree = trees[0]
    assert tree.sentence_id == 2901046
    assert tree.subdoc == "703-706"
    assert tree.author == "Aeschylus"
    assert tree.title == "Persians"
    assert len(tree.nodes) == 9
    subject = _node(tree, 3)
    assert subject.lemma == "δέος"
    assert subject.relation == "SBJ"
    assert subject.head_id == 7
    verb = _node(tree, 7)
    assert verb.postag.voice == "medio-passive"
    assert verb.relation == "ADV"


def test_document_metadata_wins_over_fallback():
    data = (CORPUS_DIR / "theogony.xml").read_bytes()
    trees, _ = parse_treebank_file(data, fallback_meta=("Nobody", "Nothing"))
    assert trees[0].author == "Hesiod"
    assert trees[0].title == "Theogony"


def test_fallback_metadata_used_when_xml_is_bare():
    data = b"<treebank><sentence id='1'><word id='1' form='a' lemma='a' postag='d-----' head='0' relation='PRED'/></sentence></treebank>"
    trees, _ = parse_treebank_file(data, fallback_meta=("Homer", "Odyssey"))
    assert (trees[0].author, trees[0].title) == ("Homer", "Odyssey")
    trees, _ = parse_treebank_file(data)
    assert (trees[0].author, trees[0].title) == ("", "")
    partial = data.replace(b"<treebank>", b"<treebank author='Homer'>")
    trees, _ = parse_treebank_file(partial, fallback_meta=("Nobody", "Odyssey"))
    assert (trees[0].author, trees[0].title) == ("Homer", "Odyssey")


def test_a_document_field_that_would_break_the_tsv_rejects_the_file():
    sentence = (
        "<sentence id='1'><word id='1' form='a' lemma='a' postag='d-----' head='0' "
        "relation='PRED'/></sentence>"
    )
    data = f'<treebank author="Homer&#10;X" title="Iliad">{sentence}</treebank>'.encode()
    with pytest.raises(ValueError) as info:
        parse_treebank_file(data)
    assert type(info.value) is ValueError
    assert str(info.value) == "author 'Homer\\nX' would corrupt the TSV layout"
    bare = f"<treebank>{sentence}</treebank>".encode()
    with pytest.raises(ValueError) as info:
        parse_treebank_file(bare, fallback_meta=("Homer\tX", "Il\u2028iad"))
    assert str(info.value) == (
        "author 'Homer\\tX' would corrupt the TSV layout; "
        "title 'Il\\u2028iad' would corrupt the TSV layout"
    )
    # a document without sentences gives no row to corrupt
    assert parse_treebank_file(b'<treebank author="Homer&#10;X" title="Iliad"/>') == ([], [])


def test_empty_file_yields_no_trees():
    trees, issues = parse_treebank_file(b"<treebank/>")
    assert trees == [] and issues == []


def test_fifty_sentence_sample_counts():
    trees, issues = parse_treebank_file((CORPUS_DIR / "iliad.xml").read_bytes())
    assert not issues
    assert len(trees) == 50
    assert [len(t.nodes) for t in trees] == ILIAD_TOKEN_COUNTS


def test_word_order_follows_the_document():
    data = b"""<treebank><sentence id="9">
        <word id="5" form="b" lemma="b" postag="n-s---ma-" head="2" relation="OBJ"/>
        <word id="2" form="a" lemma="a" postag="v3spia---" head="0" relation="PRED"/>
    </sentence></treebank>"""
    trees, _ = parse_treebank_file(data)
    assert [n.token_id for n in trees[0].nodes] == [5, 2]
    assert trees[0].positions[5] == 0


def test_missing_attribute_skips_word_and_reports():
    data = b"""<treebank><sentence id="4">
        <word id="1" form="x" lemma="a" postag="v3spia---" head="0" relation="PRED"/>
        <word id="2" form="y" lemma="b" postag="n-s---ma-" head="1"/>
        <word id="3" form="z" lemma="q?" postag="n-s---ma-" head="1" relation="OBJ"/>
        <word id="4" form="w" lemma="c" postag="zzz" head="1" relation="OBJ"/>
    </sentence></treebank>"""
    trees, issues = parse_treebank_file(data)
    assert len(trees) == 1
    # word 2 lacks relation, word 3 has an untranscodable lemma, word 4 an
    # undecodable postag
    assert [n.token_id for n in trees[0].nodes] == [1]
    assert len(issues) == 3
    assert len(trees[0].nodes) + len(issues) == 4
    assert any("relation" in issue.message for issue in issues)


def test_repeated_bad_words_are_each_reported():
    # decoding is cached per process; errors are not, so the second
    # occurrence of a bad lemma or postag is reported like the first
    data = b"""<treebank><sentence id="6">
        <word id="1" form="x" lemma="a" postag="v3spia---" head="0" relation="PRED"/>
        <word id="2" form="y" lemma="q?" postag="n-s---ma-" head="1" relation="OBJ"/>
        <word id="3" form="z" lemma="c" postag="zzz" head="1" relation="OBJ"/>
        <word id="4" form="y" lemma="q?" postag="n-s---ma-" head="1" relation="OBJ"/>
        <word id="5" form="z" lemma="c" postag="zzz" head="1" relation="OBJ"/>
    </sentence></treebank>"""
    bad_lemma = "character outside the Beta Code alphabet: '?' at offset 1"
    bad_postag = "unknown pos letter: 'z' at position 1"
    for _ in range(2):
        trees, issues = parse_treebank_file(data)
        assert [n.token_id for n in trees[0].nodes] == [1]
        assert issues == [
            WordIssue(6, 2, bad_lemma),
            WordIssue(6, 3, bad_postag),
            WordIssue(6, 4, bad_lemma),
            WordIssue(6, 5, bad_postag),
        ]


def test_parsing_the_same_bytes_twice_gives_equal_trees():
    data = (CORPUS_DIR / "iliad.xml").read_bytes()
    first, first_issues = parse_treebank_file(data)
    second, second_issues = parse_treebank_file(data)
    assert first == second
    assert first_issues == second_issues
    assert first[0].nodes[0].postag is second[0].nodes[0].postag


def test_malformed_xml_raises_with_offset():
    with pytest.raises(TreebankParseError) as info:
        parse_treebank_file(b"<treebank><sentence id='1'></treebank>")
    assert info.value.byte_offset >= 0


@pytest.mark.parametrize(
    "encoding,fault",
    [("xTF-8", "unknown encoding: xTF-8"), ("UTF-32", "multi-byte encodings are not supported")],
)
def test_an_encoding_the_parser_cannot_read_fails_at_the_declaration(encoding, fault):
    data = f'<?xml version="1.0" encoding="{encoding}"?><treebank/>'.encode("ascii")
    with pytest.raises(TreebankParseError) as info:
        parse_treebank_file(data)
    assert info.value.args == (f"unusable encoding: {fault}", 0)


@pytest.mark.parametrize("extra", [0, 1])
def test_a_file_of_several_feeds_parses_whole(extra):
    # the document ends exactly at 16 KiB boundaries, or one byte past
    # one: the reader is given the whole file, whatever its size
    read_bytes = 16 * 1024
    sentence = (
        '<sentence id="{}"><word id="1" form="lu/w" lemma="lu/w1" postag="v1spia---"'
        ' head="0" relation="PRED"/></sentence>\n'
    )
    body = "".join(sentence.format(n) for n in range(1, 301))
    padding = 3 * read_bytes + extra - len(body) - len("<treebank></treebank>")
    data = f"<treebank>{body}{' ' * padding}</treebank>".encode("ascii")
    assert len(data) == 3 * read_bytes + extra
    trees, issues = parse_treebank_file(data)
    assert [tree.sentence_id for tree in trees] == list(range(1, 301))
    assert issues == []


def test_byte_offset_counts_every_line_break_the_xml_parser_counts():
    # expat ends a line at \r\n, \r or \n; the error sits just after the '&'
    for newline in (b"\n", b"\r\n", b"\r"):
        data = newline.join([b"<treebank>", b"<sentence id='1'>", b"</sentence>", b"& </treebank>"])
        with pytest.raises(TreebankParseError) as info:
            parse_treebank_file(data)
        assert info.value.byte_offset == data.index(b"&") + 1


def test_byte_offset_counts_the_bytes_of_multi_byte_characters():
    # expat's column counts characters; each é before the fault is two bytes
    with pytest.raises(TreebankParseError) as info:
        parse_treebank_file(b"<a>\xc3\xa9\xc3\xa9<</a>")
    assert info.value.byte_offset == 8


def test_byte_offset_on_a_greek_line_after_a_crlf_break():
    data = "<treebank>\r\n<word lemma='ἀνήρ'>ὁ ἀνὴρ & </word></treebank>".encode("utf-8")
    with pytest.raises(TreebankParseError) as info:
        parse_treebank_file(data)
    assert info.value.byte_offset == data.index(b"&") + 1


_EXPAT_LINE_BREAK = re.compile(rb"\r\n?|\n")


def regex_byte_offset(data, line, column):
    """The byte offset of expat's (line, column), by searching for each of
    the line breaks expat counts in turn."""
    line_start = 0
    for _ in range(line - 1):
        line_start = _EXPAT_LINE_BREAK.search(data, line_start).end()
    line_end = _EXPAT_LINE_BREAK.search(data, line_start)
    text = data[line_start : line_end.start() if line_end else len(data)]
    head = text.decode("utf-8", "surrogateescape")[:column]
    return line_start + len(head.encode("utf-8", "surrogateescape"))


def test_byte_offset_agrees_with_a_regex_line_walk():
    # \x0b, \x0c, \x1c and U+2028 end a line for str.splitlines, not for
    # expat; every (line, column) drawn is one that expat can report
    pieces = [
        b"\n", b"\r", b"\r\n", b"a", b"<", "\u00e9".encode(), "\u1f00".encode(),
        "\U0001d11e".encode(), b"\xff", b"\x80", b"\xe2\x80", b"\x0b", b"\x0c",
        b"\x1c", "\u2028".encode(),
    ]
    rng = random.Random(20261020)
    for _ in range(2000):
        data = b"".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        lines = _EXPAT_LINE_BREAK.split(data)
        line = rng.randint(1, len(lines))
        column = rng.randint(0, len(lines[line - 1].decode("utf-8", "surrogateescape")))
        assert _byte_offset(data, line, column) == regex_byte_offset(data, line, column), (
            data, line, column
        )


def test_fuzzed_xml_parses_or_raises_with_an_offset_inside_the_data():
    # truncated, overwritten and spliced bytes: a file either parses whole or
    # raises, and the trees of a malformed file are never returned
    rng = random.Random(20261018)
    originals = [path.read_bytes() for path in sorted(CORPUS_DIR.glob("*.xml"))]
    splices = [b"\r", b"\r\n", b"\n", b"<", b"&", b"\xff", b"\x00", b"]]>", b"<sentence>", b"</word>"]
    outcomes = set()
    for case in range(600):
        data = bytearray(rng.choice(originals))
        if case % 3 == 0:
            del data[rng.randrange(len(data) + 1):]
        elif case % 3 == 1:
            for _ in range(rng.randint(1, 3)):
                data[rng.randrange(len(data))] = rng.randrange(256)
        else:
            at = rng.randrange(len(data) + 1)
            data[at:at] = rng.choice(splices)
        data = bytes(data)
        try:
            ET.fromstring(data)
            well_formed = True
        except ET.ParseError:
            well_formed = False
        try:
            parse_treebank_file(data)
        except TreebankParseError as exc:
            assert not well_formed
            assert 0 <= exc.byte_offset <= len(data)
        else:
            assert well_formed
        outcomes.add(well_formed)
    assert outcomes == {True, False}


def _reference_parse(data, fallback_meta=None):
    """The reader as it was when ElementTree's iterparse read each file:
    every outermost sentence read as an element once it closed, then
    cleared, and the metadata read off the root when the document ended."""
    sentences, issues, root, open_sentences = [], [], None, 0
    try:
        for event, element in ET.iterparse(io.BytesIO(data), ("start", "end")):
            if root is None:
                root = element
            if element.tag != "sentence":
                continue
            open_sentences += 1 if event == "start" else -1
            if event == "start" or open_sentences:
                continue
            for sentence in element.iter("sentence"):
                raw_id = sentence.get("id")
                try:
                    sentence_id = int(raw_id)
                except (TypeError, ValueError):
                    issues.append(WordIssue(None, 0, f"sentence with unusable id {raw_id!r} skipped"))
                    continue
                nodes = []
                for word_index, word in enumerate(sentence.iter("word"), start=1):
                    try:
                        nodes.append(_parse_word(word.attrib))
                    except ValueError as exc:
                        issues.append(WordIssue(sentence_id, word_index, str(exc)))
                subdoc = unicodedata.normalize("NFC", sentence.get("subdoc", ""))
                sentences.append((sentence_id, subdoc, nodes))
            if element is not root:
                element.clear()
    except ET.ParseError as exc:
        raise TreebankParseError(f"malformed XML: {exc.msg}", _byte_offset(data, *exc.position))
    except (LookupError, ValueError) as exc:
        raise TreebankParseError(f"unusable encoding: {exc}", 0) from None
    fallback_author, fallback_title = fallback_meta or ("", "")
    author = root.get("author") or (root.findtext("author") or "").strip() or fallback_author
    title = root.get("title") or (root.findtext("title") or "").strip() or fallback_title
    author, title = (unicodedata.normalize("NFC", value) for value in (author, title))
    broken = sentences and [
        f"{name} {value!r} would corrupt the TSV layout"
        for name, value in (("author", author), ("title", title))
        if LAYOUT_BREAK.search(value)
    ]
    if broken:
        raise ValueError("; ".join(broken))
    trees = [SentenceTree(i, subdoc, author, title, nodes) for i, subdoc, nodes in sentences]
    return trees, issues


def _outcome(parse, data, fallback_meta):
    try:
        return parse(data, fallback_meta)
    except TreebankParseError as exc:
        return "malformed", exc.args, exc.byte_offset
    except ValueError as exc:
        return "layout", str(exc)


_FUZZ_WORD = '<word id="{}" form="f" lemma="{}" postag="{}" head="{}" relation="{}"/>'
_LONG_NAME = "ε" * 60  # 120 bytes, cut mid-character at ElementTree's 100
_FUZZ_PIECES = [
    # sentences, nested ones, bad ids, bad words and a subdoc the TSV cannot hold
    '<sentence id="1" subdoc="1-2">' + _FUZZ_WORD.format(1, "lu/w1", "v3spia---", 0, "PRED")
    + _FUZZ_WORD.format(2, "lo/gos", "n-s---ma-", 1, "OBJ") + "</sentence>",
    '<sentence id="2">' + _FUZZ_WORD.format(1, "α", "v3spia---", 0, "PRED")
    + '<sentence id="3"><p>' + _FUZZ_WORD.format(1, "β", "n-s---ma-", 2, "OBJ") + "</p></sentence>"
    + _FUZZ_WORD.format(2, "γ", "bogus", 1, "OBJ") + '<sentence id="x"/></sentence>',
    '<sentence subdoc="3">' + _FUZZ_WORD.format(1, "a", "d-----", 0, "PRED") + "</sentence>",
    '<sentence id="4" subdoc="a&#9;b"><word id="1" lemma="a"/>'
    + _FUZZ_WORD.format(0, "a", "d-----", 0, "PRED") + "</sentence>",
    _FUZZ_WORD.format(5, "a", "d-----", 0, "PRED"),
    # metadata: empty, with a child, repeated, padded, spread over markup
    "<author/>", "<author>Hom<b>x</b>er</author>", "<title>Ajax</title>", "<title>Ilias</title>",
    "<author>  Ὅμηρος\n</author>", "<author><![CDATA[Ho]]><!-- c -->m<?pi x?>er&amp;</author>",
    "<title>a&#10;b</title>",
    # entities: internal, predefined, external, undeclared, one holding markup
    "&a;", "&amp;", "&x;", "&y;", "&c;", "&w;", "&nowhere;", f"&{_LONG_NAME};", f"&{'e' * 120};",
    # namespaces, bound, default and unbound
    '<n:sentence xmlns:n="urn:n" id="6"/>', '<sentence xmlns="urn:d" id="7"/>', "<q:word/>",
    '<s xmlns:z="urn:z"><z:word id="1"/></s>',
    # CDATA, comments and processing instructions
    "<![CDATA[<sentence id='8'/>]]>", "<!-- <sentence id='9'/> -->", "<?pi data?>",
]
# spliced into a document, with the pieces above
_FUZZ_BREAKS = ["<", "&", "]]>", "\r\n", "</sentence>", "<sentence id='10'>"]
_FUZZ_DOCTYPES = [
    "",
    '<!DOCTYPE treebank [<!ENTITY a "alpha"><!ENTITY x SYSTEM "x.ent"><!ENTITY y "&x;">'
    '<!ENTITY w \'<word id="7" form="f" lemma="w" postag="d-----" head="0" relation="PRED"/>\'>'
    '<!ENTITY xx SYSTEM "x.ent"><!ENTITY b "&xx;"><!ENTITY c "&b;">]>',
    # an external subset: an undeclared entity is skipped, not a fatal error
    '<!DOCTYPE treebank SYSTEM "treebank.dtd" [<!ENTITY a "alpha"><!ENTITY x SYSTEM "x.ent">]>',
    f'<!DOCTYPE treebank [<!ENTITY {_LONG_NAME} "long"><!ENTITY % p "pe"> %p;]>',
]
_FUZZ_PROLOGS = [
    "", '<?xml version="1.0"?>\n', '<?xml version="1.0" encoding="ISO-8859-7"?>',
    '<?xml version="1.0" encoding="xTF-8"?>', '<?xml version="1.0" encoding="UTF-32"?>',
]
_FUZZ_ROOTS = [
    ("<treebank>", "</treebank>"),
    ('<treebank author="Homer" title="Iliad">', "</treebank>"),
    ('<treebank title="Il&#10;iad">', "</treebank>"),
    ('<sentence id="11"><author>Sappho</author>', "</sentence>"),
    ('<t:treebank xmlns:t="urn:t">', "</t:treebank>"),
]


def _fuzzed_document(rng):
    opening, closing = rng.choice(_FUZZ_ROOTS)
    body = "".join(rng.choice(_FUZZ_PIECES) for _ in range(rng.randint(0, 6)))
    prolog = rng.choices(_FUZZ_PROLOGS, weights=(8, 8, 2, 1, 1))[0]
    text = prolog + rng.choice(_FUZZ_DOCTYPES) + opening + body + closing
    data = bytearray(text.encode("utf-8"))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        mutation = rng.randrange(3)
        if mutation == 0:
            del data[rng.randrange(len(data) + 1):]
        elif mutation == 1 and data:
            data[rng.randrange(len(data))] = rng.randrange(256)
        else:
            at = rng.randrange(len(data) + 1)
            data[at:at] = rng.choice(_FUZZ_PIECES + _FUZZ_BREAKS).encode("utf-8")
    return bytes(data)


def test_the_reader_agrees_with_elementtree_on_fuzzed_files():
    # equal trees and issues, or an equal error with the same byte offset,
    # on documents built from pieces, then truncated, overwritten or spliced
    rng = random.Random(20261022)
    metas = [None, ("Aeschylus", "Persians"), ("Homer\tX", "")]
    kinds = set()
    for _ in range(4000):
        data = _fuzzed_document(rng)
        meta = rng.choice(metas)
        expected = _outcome(_reference_parse, data, meta)
        assert _outcome(parse_treebank_file, data, meta) == expected, (data, meta)
        kinds.add(expected[0] if isinstance(expected[0], str) else "trees")
    assert kinds == {"malformed", "layout", "trees"}


@pytest.mark.parametrize(
    "doctype,reference,expected",
    [
        # an external entity is not read; ElementTree names it at the reference
        ('<!ENTITY x SYSTEM "x.ent">', "&x;", "&x;"),
        # named from inside the internal entity that refers to it
        ('<!ENTITY x SYSTEM "x.ent"><!ENTITY y "&x;">', "&y;", "&x;"),
        # expat lists the open entities in hash order, the external one not last
        ('<!ENTITY xx SYSTEM "x.ent"><!ENTITY b "&xx;"><!ENTITY c "&b;">', "&c;", "&xx;"),
        # with an external subset an undeclared entity is skipped, not fatal
        ('', "&nowhere;", "&nowhere;"),
        # the name is cut to 100 bytes, here inside a two-byte character
        ('', f"&{'ε' * 60};", "&" + "ε" * 49 + "\ufffd"),
    ],
)
def test_an_entity_the_reader_cannot_expand_is_named_as_elementtree_names_it(
    doctype, reference, expected
):
    subset = f' SYSTEM "treebank.dtd" [{doctype}]' if not doctype else f" [{doctype}]"
    data = f"<!DOCTYPE treebank{subset}>\n<treebank>ab{reference}</treebank>".encode("utf-8")
    with pytest.raises(TreebankParseError) as info:
        parse_treebank_file(data)
    column = len("<treebank>ab")
    message = f"malformed XML: undefined entity {expected}: line 2, column {column}"
    assert info.value.args == (message, data.index(b"<treebank>") + column)
    reported = ("malformed", info.value.args, info.value.byte_offset)
    assert _outcome(_reference_parse, data, None) == reported


@pytest.mark.parametrize(
    "data",
    [
        (CORPUS_DIR / "iliad.xml").read_bytes(),
        b"<treebank><author>A</author><sentence id='1'><word id='1'/></sentence></treebank>",
        b"<treebank><sentence id='1'></treebank>",
        b'<!DOCTYPE t [<!ENTITY x SYSTEM "x.ent"><!ENTITY y "&x;">]><t>&y;</t>',
        b'<?xml version="1.0" encoding="xTF-8"?><t/>',
    ],
    ids=["corpus-file", "author-and-bad-word", "malformed", "external-entity", "encoding"],
)
def test_a_parse_leaves_no_garbage_for_the_collector(data):
    # a batch run pauses the collector, so a reference cycle made by each
    # parse would be kept until the command ends
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        try:
            parse_treebank_file(data)
        except ValueError:
            pass
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_nested_sentences_are_read_in_document_order():
    # the parser drops each outermost sentence once it is read; a nested one
    # keeps its place, and metadata after the sentences still applies
    word = '<word id="{}" form="f" lemma="{}" postag="n-s---na-" head="{}" relation="OBJ"/>'
    data = (
        '<treebank><sentence id="1">' + word.format(1, "α", 0)
        + '<sentence id="2">' + word.format(1, "β", 0) + "</sentence>"
        + word.format(2, "γ", 1) + "</sentence>"
        + '<sentence id="3"><phrase>' + word.format(1, "δ", 0) + "</phrase></sentence>"
        + "<title>Ajax</title></treebank>"
    ).encode("utf-8")
    trees, issues = parse_treebank_file(data, fallback_meta=("Sophocles", "Nothing"))
    assert not issues
    assert [(t.sentence_id, t.author, t.title, [n.lemma for n in t.nodes]) for t in trees] == [
        (1, "Sophocles", "Ajax", ["α", "β", "γ"]),
        (2, "Sophocles", "Ajax", ["β"]),
        (3, "Sophocles", "Ajax", ["δ"]),
    ]


_WORD = {
    "id": "2", "form": "λόγον", "lemma": "lo/gos1", "postag": "n-s---ma-", "head": "1",
    "relation": "OBJ",
}


@pytest.mark.parametrize(
    "change,message",
    [
        *[({name: None}, f"missing attribute {name!r}") for name in _WORD],
        # the first missing name in the order id, form, lemma, postag, head, relation
        ({"postag": None, "id": None}, "missing attribute 'id'"),
        ({"relation": None, "lemma": None}, "missing attribute 'lemma'"),
        ({"head": None, "form": None}, "missing attribute 'form'"),
        ({"relation": None, "id": "x"}, "missing attribute 'relation'"),
        ({"id": "x"}, "invalid literal for int() with base 10: 'x'"),
        ({"id": "1.5"}, "invalid literal for int() with base 10: '1.5'"),
        ({"id": ""}, "invalid literal for int() with base 10: ''"),
        ({"head": " 1.5"}, "invalid literal for int() with base 10: ' 1.5'"),
        ({"id": "x", "head": "y"}, "invalid literal for int() with base 10: 'x'"),
        ({"id": "0", "head": "x"}, "invalid literal for int() with base 10: 'x'"),
        ({"id": "0"}, "token id must be positive, got 0"),
        ({"id": "-2"}, "token id must be positive, got -2"),
        ({"head": "-1"}, "head must be non-negative, got -1"),
        ({"id": "0", "head": "-1"}, "token id must be positive, got 0"),
    ],
)
def test_word_errors_keep_their_messages(change, message):
    attributes = {**_WORD, **change}
    word = " ".join(f'{k}="{v}"' for k, v in attributes.items() if v is not None)
    data = f"<treebank><sentence id='1'><word {word}/></sentence></treebank>".encode("utf-8")
    trees, issues = parse_treebank_file(data)
    assert trees[0].nodes == []
    assert issues == [WordIssue(1, 1, message)]


def test_unusable_sentence_id_is_reported_and_skipped():
    data = b"""<treebank>
        <sentence><word id="1" form="a" lemma="a" postag="d-----" head="0" relation="PRED"/></sentence>
        <sentence id="x7"><word id="1" form="a" lemma="a" postag="d-----" head="0" relation="PRED"/></sentence>
        <sentence id="8"><word id="1" form="a" lemma="a" postag="d-----" head="0" relation="PRED"/></sentence>
    </treebank>"""
    trees, issues = parse_treebank_file(data)
    assert [t.sentence_id for t in trees] == [8]
    assert len(issues) == 2
    assert all("skipped" in issue.message for issue in issues)


def test_out_of_range_ids_are_word_errors():
    data = b"""<treebank><sentence id="5">
        <word id="0" form="a" lemma="a" postag="d-----" head="0" relation="PRED"/>
        <word id="2" form="b" lemma="b" postag="d-----" head="-3" relation="ADV"/>
    </sentence></treebank>"""
    trees, issues = parse_treebank_file(data)
    assert trees[0].nodes == []
    assert len(issues) == 2


def test_metadata_from_child_elements():
    data = b"""<treebank>
      <author>Sophocles</author><title>Ajax</title>
      <sentence id="1"><word id="1" form="a" lemma="a" postag="d-----" head="0" relation="PRED"/></sentence>
    </treebank>"""
    trees, _ = parse_treebank_file(data)
    assert (trees[0].author, trees[0].title) == ("Sophocles", "Ajax")


def test_metadata_and_subdocs_are_nfc_from_every_source():
    author, title, subdoc = "Ὅμηρος", "Ἰλιάς", "Ἰλιάς 1"
    nfd = {name: unicodedata.normalize("NFD", value).encode("utf-8")
           for name, value in (("author", author), ("title", title), ("subdoc", subdoc))}
    assert nfd["title"] != title.encode("utf-8")
    words = b"<word id='1' form='a' lemma='a' postag='d-----' head='0' relation='PRED'/>"
    sentence = b"<sentence id='1' subdoc='" + nfd["subdoc"] + b"'>" + words + b"</sentence>"
    attributes = (
        b"<treebank author='" + nfd["author"] + b"' title='" + nfd["title"] + b"'>"
        + sentence + b"</treebank>"
    )
    elements = (
        b"<treebank><author>" + nfd["author"] + b"</author><title>" + nfd["title"]
        + b"</title>" + sentence + b"</treebank>"
    )
    bare = b"<treebank>" + sentence + b"</treebank>"
    fallback = tuple(unicodedata.normalize("NFD", value) for value in (author, title))
    for data in (attributes, elements, bare):
        trees, issues = parse_treebank_file(data, fallback_meta=fallback)
        assert not issues
        assert (trees[0].author, trees[0].title, trees[0].subdoc) == (author, title, subdoc)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("su/1", "σύ"),
        ("δέος", "δέος"),
        ("a)lla/1", "ἀλλά"),
        ("de/os1", "δέος"),
        ("nau=s1", "ναῦς"),
        ("δέος1", "δέος"),
        ("", ""),
    ],
)
def test_normalize_lemma(raw, expected):
    assert normalize_lemma(raw) == expected


def test_normalize_lemma_propagates_transcode_errors():
    with pytest.raises(BetaCodeError):
        normalize_lemma("abc?1")


@pytest.mark.parametrize("char", list(",()[]{}\t\n"))
def test_normalize_lemma_rejects_what_the_frame_format_reserves(char):
    before = normalize_lemma.cache_info().currsize
    for _ in range(2):  # errors are not cached, so each bad word raises
        with pytest.raises(ValueError, match="reserved character"):
            normalize_lemma(f"εἰς{char}ἐς1")
    assert normalize_lemma.cache_info().currsize == before


def _tree(nodes):
    return SentenceTree(1, "", "", "", nodes)


def _word(token_id, head_id, relation="OBJ", lemma="δῶρον"):
    return WordNode(token_id, lemma, decode_postag("n-s---ma-"), head_id, relation)


def test_validate_truncated_excerpt_reports_dangling_head():
    data = (CORPUS_DIR / "persians.xml").read_bytes()
    trees, _ = parse_treebank_file(data)
    truncated = SentenceTree(
        trees[0].sentence_id,
        trees[0].subdoc,
        trees[0].author,
        trees[0].title,
        [n for n in trees[0].nodes if n.token_id != 25],
    )
    report = validate_sentence(truncated)
    assert not report.ok
    assert {head for _, head in report.dangling_heads} == {25}
    assert any("dangling head 25" in msg for msg in report.messages())


def test_validate_minimal_chain_is_clean():
    report = validate_sentence(_tree([_word(1, 0, "PRED"), _word(2, 1)]))
    assert report.ok
    assert report.messages() == []


def test_validate_self_loop_is_a_cycle():
    report = validate_sentence(_tree([_word(1, 1)]))
    assert report.cycle_token_ids == [1]


def test_validate_two_node_cycle():
    report = validate_sentence(_tree([_word(1, 2), _word(2, 1)]))
    assert report.cycle_token_ids == [1, 2]


def test_validate_duplicate_ids():
    report = validate_sentence(_tree([_word(1, 0, "PRED"), _word(1, 0, "PRED")]))
    assert report.duplicate_ids == [1]


def test_validate_a_subdoc_with_a_layout_break():
    # the lexicon's TSV could not hold it, so the sentence is not valid
    tree = SentenceTree(1, "1\t2", "", "", [_word(1, 0, "PRED")])
    report = validate_sentence(tree)
    assert not report.ok
    assert report.messages() == ["subdoc '1\\t2' would corrupt the TSV layout"]


def _reference_validate(tree):
    """The validator as it was before it read the tree's own id index; it
    builds its own first-occurrence map, so it never reads that index."""
    first = {}
    for node in tree.nodes:
        first.setdefault(node.token_id, node)
    seen = set()
    duplicates = set()
    for node in tree.nodes:
        if node.token_id in seen:
            duplicates.add(node.token_id)
        seen.add(node.token_id)
    dangling = sorted(
        {(n.token_id, n.head_id) for n in tree.nodes if n.head_id != 0 and n.head_id not in seen}
    )
    state = {}
    cyclic = set()
    for node in tree.nodes:
        chain = []
        current = node.token_id
        while True:
            if current == 0 or current not in first or state.get(current) in ("done", "cyclic"):
                break
            if current in chain:
                loop = chain[chain.index(current):]
                cyclic.update(loop)
                for t in loop:
                    state[t] = "cyclic"
                break
            chain.append(current)
            current = first[current].head_id
        for t in chain:
            state.setdefault(t, "done")
    return ValidationReport(tree.sentence_id, sorted(duplicates), dangling, sorted(cyclic))


def test_validate_matches_the_reference_on_random_trees():
    # ids are drawn from 0 up, so duplicates and a token 0 come up, and a
    # tree only code can build: a word with id 0 whose head is 0, which a
    # walk down from head 0 would follow forever.  Half the trees start
    # valid, so the walk decides them, and some then get one word redrawn
    rng = random.Random(4242)
    valid = 0
    for case in range(3000):
        size = rng.randint(1, 9)
        if case % 2:
            ids = rng.sample(range(1, size + 3), size)
            nodes = [_word(token_id, rng.choice([0, *ids[:index]])) for index, token_id in enumerate(ids)]
            rng.shuffle(nodes)
            if rng.random() < 0.4:
                nodes[rng.randrange(size)] = _word(rng.randint(0, size + 1), rng.randint(0, size + 1))
        else:
            nodes = [_word(rng.randint(0, size + 1), rng.randint(0, size + 1)) for _ in range(size)]
        report = validate_sentence(_tree(nodes))
        assert report == _reference_validate(_tree(nodes)), nodes
        valid += report.ok
    assert 1000 < valid < 2000
    for nodes in ([_word(0, 0)], [_word(1, 0, "PRED"), _word(0, 0)], [_word(0, 1), _word(1, 0)]):
        report = validate_sentence(_tree(nodes))
        assert report == _reference_validate(_tree(nodes))
        assert report.ok  # a head chain stops at id 0, as head 0 stops it


def test_parse_bookkeeping_under_random_attribute_loss():
    # every word element either becomes a node or a reported issue
    import random

    rng = random.Random(99)
    attributes = {
        "id": "{i}",
        "form": "fe/rei",
        "lemma": "fe/rw1",
        "postag": "v3spia---",
        "head": "0",
        "relation": "PRED",
    }
    for _ in range(25):
        word_count = rng.randint(1, 12)
        words = []
        for i in range(1, word_count + 1):
            keep = {
                name: value.format(i=i)
                for name, value in attributes.items()
                if rng.random() > 0.25
            }
            words.append("<word " + " ".join(f'{k}="{v}"' for k, v in keep.items()) + "/>")
        xml = f"<treebank><sentence id='1'>{''.join(words)}</sentence></treebank>"
        trees, issues = parse_treebank_file(xml.encode("utf-8"))
        assert len(trees[0].nodes) + len(issues) == word_count


def test_manifest_loads_and_rejects_bad_lines(tmp_path):
    mapping = load_manifest(MANIFEST_FILE)
    assert mapping["iliad.xml"] == ("Homer", "Iliad")
    bad = tmp_path / "bad.tsv"
    bad.write_text("only-two\tfields\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_manifest(bad)


def test_manifest_skips_indented_comments_and_counts_every_line(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("  # works\na.xml\tHomer\tIliad\n\n\t# next\nb.xml\tHesiod\n", encoding="utf-8")
    at = re.escape(str(path))
    with pytest.raises(ValueError, match=f"^{at}: line 5: expected 3 tab-separated fields$"):
        load_manifest(path)
    path.write_text("  # works\na.xml\tHomer\tIliad\n\n\t# next\n", encoding="utf-8")
    assert load_manifest(path) == {"a.xml": ("Homer", "Iliad")}


def test_manifest_rejects_a_file_named_twice(tmp_path):
    path = tmp_path / "twice.tsv"
    path.write_text(
        "a.xml\tHomer\tIliad\n# the next work\nb.xml\tHesiod\tTheogony\n"
        "a.xml\tHomer\tOdyssey\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}: line 4: duplicate file 'a.xml' (first at line 1)"
