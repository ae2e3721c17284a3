"""Every kind of JSON file the CLI reads, with one value replaced.

For each kind a valid file is drawn, one JSON path in it (the whole
document included) is replaced by a drawn JSON value, and ``cli.main``
runs in process.  The contract:

- the run exits 0, or it exits 1 with exactly one stderr line, which
  starts ``error:`` and never carries Python's own wording;
- a list or an object replaced by a value of another type fails the run:
  it is never read as empty;
- nothing is written outside ``--out``.

Drawn strings are at most 3 characters, so no echoed value can spell a
forbidden phrase.  Drawn numbers lie in [-3, 40]: a float with no
fractional part is a JSON integer, so no ``fuse-demo`` config can ask for
a large array either.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from promptkit.cli import main

PYTHON_WORDING = ("not subscriptable", "is not iterable", "indices must be",
                  "object has no attribute", "unhashable", "'NoneType'")

SHORT_TEXT = st.text(max_size=3)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-3.0, 40.0) | SHORT_TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(SHORT_TEXT, children, max_size=3),
    max_leaves=6,
)

FUZZ_SETTINGS = settings(max_examples=60, deadline=None)


def json_paths(doc, prefix=()):
    """Every path into ``doc``, the empty path (the document) first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` set to ``value``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    lookup(doc, path[:-1])[path[-1]] = value
    return doc


def container_type(value):
    return list if isinstance(value, list) else dict if isinstance(value, dict) else None


@st.composite
def mutations(draw, valid_docs):
    """A valid document and that document with one path replaced, plus
    whether a list or an object was replaced by a value of another type."""
    doc = draw(valid_docs)
    path = draw(st.sampled_from(list(json_paths(doc))))
    value = draw(JSON_VALUES)
    old = container_type(lookup(doc, path))
    retyped = old is not None and container_type(value) is not old
    return replaced(doc, path, value), retyped


def snapshot(root: Path, skip: Path | None) -> dict:
    """Every file under ``root`` outside ``skip``, with its bytes."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and (skip is None or skip not in p.parents)}


def check_run(tmp: Path, argv, retyped: bool, out_dir: Path | None = None):
    before = snapshot(tmp, out_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    err = err.getvalue()
    if code == 0:
        assert err == ""
        assert not retyped, "a list or object of another type was read as valid"
    else:
        assert code == 1, (code, err)
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), err
        assert not any(phrase in err for phrase in PYTHON_WORDING), err
    assert snapshot(tmp, out_dir) == before
    return code, out.getvalue()


def write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


BOXES = [[0.1, 0.1, 0.5, 0.5], [0.2, 0.3, 0.6, 0.9], [0.0, 0.0, 1.0, 1.0]]


@st.composite
def annotation_docs(draw, source, tags=("cat", "dog")):
    def instance():
        item = {"box": draw(st.sampled_from(BOXES)), "tag": draw(st.sampled_from(tags)),
                "score": draw(st.floats(0.0, 1.0))}
        # The optional fields, so that the fuzz replaces them too.
        if draw(st.booleans()):
            item["similarity"] = draw(st.floats(-1.0, 1.0))
        if draw(st.booleans()):
            item["alias_tag"] = draw(st.sampled_from(tags))
        return item

    return {
        "image_id": "img",
        "width": draw(st.integers(1, 40)),
        "height": draw(st.integers(1, 40)),
        "source": source,
        "instances": [instance() for _ in range(draw(st.integers(1, 3)))],
    }


def partner(source, image_id="img"):
    return {"image_id": image_id, "width": 8, "height": 8, "source": source,
            "instances": [{"box": box, "tag": tag, "score": 0.5}
                          for box, tag in zip(BOXES, ("cat", "dog", "cat"))]}


def write_verify_dirs(tmp: Path, a_doc, b_doc):
    """Directories ``a`` and ``b``: the pair for ``img`` and a valid pair for
    ``clean``, an id longer than any drawn string."""
    write_json(tmp / "a" / "img.json", a_doc)
    write_json(tmp / "b" / "img.json", b_doc)
    write_json(tmp / "a" / "clean.json", partner("top_down", "clean"))
    write_json(tmp / "b" / "clean.json", partner("bottom_up", "clean"))
    return tmp / "a", tmp / "b"


@FUZZ_SETTINGS
@given(st.booleans().flatmap(lambda bottom_up: st.tuples(
    st.just(bottom_up), mutations(annotation_docs("bottom_up" if bottom_up else "top_down")))))
def test_annotation_file(case):
    bottom_up, (doc, retyped) = case
    a_doc, b_doc = (partner("top_down"), doc) if bottom_up else (doc, partner("bottom_up"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dir_a, dir_b = write_verify_dirs(tmp, a_doc, b_doc)
        out_dir = tmp / "out"
        code, out = check_run(tmp, ["verify", "--a", dir_a, "--b", dir_b, "--hash-fallback",
                                    "--emb-dim", 8, "--out", out_dir], retyped, out_dir)
    if code == 1 and out:
        # A refused file is that file's error, and the other image is verified.
        payload = json.loads(out)
        [error] = payload["errors"]
        assert error.startswith(str((dir_b if bottom_up else dir_a) / "img.json"))
        assert "clean" in [image["image_id"] for image in payload["images"]]


@st.composite
def manifests(draw):
    n = draw(st.integers(1, 4))
    return {"batch_size": draw(st.integers(1, 3)), "seed": draw(st.integers(0, 40)),
            "samples": [{"id": f"s{i}", "dataset": draw(st.sampled_from(["d0", "d1"]))}
                        for i in range(n)]}


@FUZZ_SETTINGS
@given(mutations(manifests()))
def test_manifest(mutation):
    doc, retyped = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write_json(tmp / "manifest.json", doc)
        check_run(tmp, ["sample", "--manifest", path], retyped)


@st.composite
def score_files(draw):
    n = draw(st.integers(2, 4))
    scores = st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)
    return {"text": draw(scores), "visual": draw(scores)}


@FUZZ_SETTINGS
@given(mutations(score_files()))
def test_select_scores(mutation):
    doc, retyped = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write_json(tmp / "scores.json", doc)
        check_run(tmp, ["select", "--scores", path, "--k", 2], retyped)


@st.composite
def fuse_configs(draw):
    config = {"dim": draw(st.integers(1, 8)), "seed": draw(st.integers(0, 40)),
              "layers": draw(st.integers(0, 2)), "feature_tokens": draw(st.integers(1, 8)),
              "text_prompts": draw(st.integers(0, 3)), "visual_prompts": draw(st.integers(0, 3))}
    optional = {"d_k": st.integers(1, 8), "hidden": st.integers(1, 8),
                "scale": st.floats(0.0, 1.0), "per_pathway_background": st.booleans()}
    for key, values in optional.items():
        if draw(st.booleans()):
            config[key] = draw(values)
    return config


@FUZZ_SETTINGS
@given(mutations(fuse_configs()))
def test_fuse_demo_config(mutation):
    doc, retyped = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write_json(tmp / "config.json", doc)
        check_run(tmp, ["fuse-demo", "--config", path], retyped)


@st.composite
def embedding_files(draw):
    dim = draw(st.integers(1, 3))
    vectors = st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim)
    return {"cat": draw(vectors), "dog": draw(vectors)}


@FUZZ_SETTINGS
@given(mutations(embedding_files()))
def test_embedding_file(mutation):
    doc, retyped = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dir_a, dir_b = write_verify_dirs(tmp, partner("top_down"), partner("bottom_up"))
        emb = write_json(tmp / "emb.json", doc)
        out_dir = tmp / "out"
        check_run(tmp, ["verify", "--a", dir_a, "--b", dir_b, "--emb", emb, "--iou-gate", 0,
                        "--out", out_dir], retyped, out_dir)
