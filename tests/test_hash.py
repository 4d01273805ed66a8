"""``model_hash`` takes SHA-256 from CPython's own module, which loads no
OpenSSL, and its digest is ``hashlib.sha256``'s."""

import hashlib
import importlib
import subprocess
import sys

import pytest

from dagforge import apply_interventions, parse, parse_model, validate
from dagforge import output
from dagforge.output import model_hash

from conftest import DATA, MODELS, model_yaml


def _builtin_sha256():
    """CPython's own SHA-256 constructor, or None where the build lacks it."""
    for name in ("_sha2", "_sha256"):  # 3.12 and later, then 3.10 and 3.11
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    return None


def test_model_hash_uses_the_builtin_sha256_where_there_is_one():
    builtin = _builtin_sha256()
    assert output.sha256 is (builtin or hashlib.sha256)


@pytest.mark.skipif(_builtin_sha256() is None, reason="this build has no built-in SHA-256 module")
def test_a_run_loads_no_libcrypto(tmp_path):
    code = f"""
import contextlib, io, sys
from dagforge import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(["run", {str(MODELS / "images.yaml")!r}, "--num-samples", "3", "--out", {str(tmp_path)!r}])
print(code, sorted({{"_hashlib", "hashlib"}} & set(sys.modules)))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.stdout == "0 []\n", result.stderr
    assert "model_hash = " in (tmp_path / "Images_metadata.manifest").read_text()


NON_ASCII = model_yaml('    Greeting: \'"grüße, 世界 ✓"\'\n    Echo: \'concat(Greeting, "é")\'\n', num_samples=2)


def _models(registry):
    """``(model, instructions)`` of each shipped model, an intervened model and
    a model with non-ASCII string literals."""
    specs = [parse_model(text, registry) for text in (
        (MODELS / "images.yaml").read_text(encoding="utf-8"),
        (MODELS / "bioseq.yaml").read_text(encoding="utf-8"),
        (DATA / "strata.yaml").read_text(encoding="utf-8"),
        NON_ASCII,
    )]
    models = [validate(spec, registry) for spec in specs]
    models[2] = apply_interventions(models[2], {"Score": parse("normal(U, 2)")}, registry)
    return [(model, spec.instructions) for model, spec in zip(models, specs)]


def test_model_hash_is_hashlib_sha256_over_the_same_text(monkeypatch, registry):
    texts = []
    builtin = output.sha256
    monkeypatch.setattr(output, "sha256", lambda data: texts.append(data) or builtin(data))
    for model, instructions in _models(registry):
        digest = model_hash(model, instructions)
        assert digest == hashlib.sha256(texts[-1]).hexdigest()
    assert len(texts) == 4
    assert "grüße, 世界 ✓" in texts[-1].decode("utf-8") and not texts[-1].isascii()
    assert b"normal(U, 2)" in texts[2]
