"""R010 — error hygiene at the ingest boundary.

The ingest layer's error messages are part of its contract: the
conformance corpus (``tests/ingest_fixtures/expectations.json``) pins
the exact rendered text of every rejection, and support tickets quote
those messages verbatim.  The CLI's second contract is its exit status:
0 clean, 1 validation findings, 2 hard errors — scripts branch on it.
Both contracts erode silently: a new ``raise`` with an unpinned message
ships un-reviewed wording; a handler that lets a :class:`FormatError`
escape turns "exit 2 with a one-line reason" into a traceback.

Three checks:

* **Dynamic messages** — a ``FormatError``/``RegistryError`` whose
  message contains no literal fragment at all (``str(exc)``,
  a pre-built variable) cannot be pinned by any corpus and gives
  support nothing stable to grep for.
* **Unpinned messages** — when the conformance corpus is available,
  every literal fragment of a raise's message must appear in it or in
  the test suite's text.  A fragment nobody asserts on is wording
  nobody reviews.
* **Exit-code discipline** — CLI command handlers (``_cmd_*``) must
  return only the literal exit codes 0/1/2, and a ``raise`` of an
  ingest error written in the handler body must sit under a ``try``
  that catches it.  The check sees only those direct raises: an error
  escaping from a *called* function is left to
  ``tests/test_ingest_formats.py``, which drives every hostile corpus
  file through ``repro ingest describe`` and ``convert`` and asserts
  exit 2 with the pinned message.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from ..astutil import attr_chain
from ..core import Finding, ModuleInfo, Rule, TraceStep, register

#: Packages whose exception text is contract (rule scope).
SCOPED_PACKAGES = ("ingest",)

#: Exception classes whose messages the corpus pins.
PINNED_EXCEPTIONS = frozenset({"FormatError", "RegistryError"})

#: The ingest-error family a CLI handler must not leak.
INGEST_ERRORS = frozenset(
    {"IngestError", "FormatError", "RegistryError"}
)

#: Handlers that satisfy the escape check.
CATCHING_NAMES = INGEST_ERRORS | {"Exception"}

#: Legal CLI exit codes.
EXIT_CODES = (0, 1, 2)

#: Minimum literal-fragment length worth pinning (shorter fragments are
#: punctuation/glue and match everything).
_MIN_FRAGMENT = 8


def _repo_root() -> Path:
    # src/repro/lint/rules/error_hygiene.py -> repo root is 4 levels up
    # from the package directory.
    return Path(__file__).resolve().parents[4]


def _load_corpus() -> Optional[str]:
    """The pin corpus: conformance expectations plus test-suite text.

    ``None`` when the repo layout is absent (installed package, fixture
    sandbox) — the unpinned-message check degrades away then.
    """
    root = _repo_root()
    expectations = root / "tests" / "ingest_fixtures" / "expectations.json"
    if not expectations.is_file():
        return None
    parts: List[str] = []
    try:
        payload = expectations.read_text(encoding="utf-8")
        json.loads(payload)  # refuse a corrupt corpus
        parts.append(payload)
    except (OSError, ValueError):
        return None
    tests_dir = root / "tests"
    for test_file in sorted(tests_dir.glob("*.py")):
        try:
            parts.append(test_file.read_text(encoding="utf-8"))
        except OSError:  # pragma: no cover - racing file removal
            continue
    return "\n".join(parts)


def _literal_fragments(message: ast.AST) -> Optional[List[str]]:
    """Literal string fragments of an exception-message expression.

    ``None`` means "not a message shape we understand" (the dynamic-
    message check handles it); an empty list means "understood, but no
    literal content".
    """
    if isinstance(message, ast.Constant):
        if isinstance(message.value, str):
            return [message.value]
        return None
    if isinstance(message, ast.JoinedStr):
        return [
            part.value
            for part in message.values
            if isinstance(part, ast.Constant)
            and isinstance(part.value, str)
        ]
    if isinstance(message, ast.BinOp) and isinstance(
        message.op, (ast.Mod, ast.Add)
    ):
        left = _literal_fragments(message.left)
        right = _literal_fragments(message.right)
        fragments: List[str] = []
        for side in (left, right):
            if side:
                fragments.extend(side)
        return fragments
    if isinstance(message, ast.Call):
        func_chain = attr_chain(message.func)
        if func_chain is not None and func_chain[-1] == "format":
            # "template {}".format(...) — literal template is the
            # receiver of the .format call.
            receiver = message.func
            if isinstance(receiver, ast.Attribute):
                return _literal_fragments(receiver.value)
    return []


@register
class ErrorHygieneRule(Rule):
    id = "R010"
    title = "ingest-error-hygiene"
    rationale = (
        "Ingest error messages are pinned contract text and CLI exit"
        " codes are a scripted interface: unpinned or dynamic messages"
        " ship un-reviewed wording, and a leaked exception turns a"
        " documented exit 2 into a traceback."
    )

    #: Class-level cache: the corpus is immutable within one process.
    _corpus_cache: Tuple[bool, Optional[str]] = (False, None)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(*SCOPED_PACKAGES):
            return
        yield from self._check_messages(module)
        if module.relpath.endswith("cli.py"):
            yield from self._check_cli_handlers(module)

    # -- message pinning -------------------------------------------------

    @classmethod
    def _corpus(cls) -> Optional[str]:
        loaded, corpus = cls._corpus_cache
        if not loaded:
            corpus = _load_corpus()
            cls._corpus_cache = (True, corpus)
        return corpus

    def _check_messages(self, module: ModuleInfo) -> Iterator[Finding]:
        corpus = self._corpus()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc
            if not isinstance(exc, ast.Call):
                continue
            chain = attr_chain(exc.func)
            if chain is None or chain[-1] not in PINNED_EXCEPTIONS:
                continue
            if not exc.args:
                continue
            message = exc.args[0]
            fragments = _literal_fragments(message)
            if fragments is not None and not any(
                fragment.strip() for fragment in fragments
            ):
                yield self.finding(
                    module,
                    node,
                    f"{chain[-1]} message is fully dynamic"
                    f" ('{module.segment(message)}'): nothing stable"
                    f" for the conformance corpus to pin — lead with a"
                    f" literal fragment describing the failure",
                    trace=[
                        TraceStep(
                            node.lineno,
                            "raise site with no literal message text",
                        )
                    ],
                )
                continue
            if corpus is None or not fragments:
                continue
            for fragment in fragments:
                text = fragment.strip()
                if len(text) < _MIN_FRAGMENT:
                    continue
                if text not in corpus:
                    yield self.finding(
                        module,
                        node,
                        f"{chain[-1]} message fragment {text!r} is not"
                        f" pinned by the conformance corpus or any"
                        f" test — add an expectation before shipping"
                        f" new contract wording",
                        trace=[
                            TraceStep(
                                node.lineno,
                                f"unpinned fragment: {text!r}",
                            )
                        ],
                    )

    # -- CLI exit-code discipline ----------------------------------------

    def _check_cli_handlers(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if not node.name.startswith("_cmd_"):
                continue
            yield from self._check_returns(module, node)
            yield from self._check_escapes(module, node)

    def _check_returns(
        self, module: ModuleInfo, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Return):
                continue
            value = node.value
            if (
                isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)
                and value.value in EXIT_CODES
            ):
                continue
            yield self.finding(
                module,
                node,
                f"CLI handler '{func.name}' must return a literal exit"
                f" code 0/1/2, not '{module.segment(node)}' — scripts"
                f" branch on these values",
                symbol=func.name,
            )

    def _check_escapes(
        self, module: ModuleInfo, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            exc_chain = attr_chain(exc)
            if not exc_chain or exc_chain[-1] not in INGEST_ERRORS:
                continue
            if self._guarded(node, func):
                continue
            yield self.finding(
                module,
                node,
                f"{exc_chain[-1]} raised outside any try/except in CLI"
                f" handler '{func.name}': the error escapes as a"
                f" traceback instead of the documented exit code 2",
                symbol=func.name,
            )

    @staticmethod
    def _guarded(node: ast.AST, func: ast.FunctionDef) -> bool:
        """Is ``node`` inside the *body* of a Try (within ``func``)
        whose handlers catch the ingest-error family?"""
        current = getattr(node, "_lint_parent", None)
        while current is not None and current is not func:
            if isinstance(current, ast.Try) and ErrorHygieneRule._within(
                current.body, node
            ):
                if any(
                    ErrorHygieneRule._catches(handler)
                    for handler in current.handlers
                ):
                    return True
            current = getattr(current, "_lint_parent", None)
        return False

    @staticmethod
    def _within(body: List[ast.stmt], node: ast.AST) -> bool:
        for statement in body:
            for child in ast.walk(statement):
                if child is node:
                    return True
        return False

    @staticmethod
    def _catches(handler: ast.ExceptHandler) -> bool:
        spec = handler.type
        if spec is None:
            return True  # bare except
        names: List[str] = []
        if isinstance(spec, ast.Tuple):
            elements = spec.elts
        else:
            elements = [spec]
        for element in elements:
            chain = attr_chain(element)
            if chain:
                names.append(chain[-1])
        return any(name in CATCHING_NAMES for name in names)
