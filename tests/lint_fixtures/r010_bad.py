"""R010 bad fixture: every way the ingest error contract erodes.

``_cmd_convert`` calls a raiser with no guard, re-raises with a fully
dynamic message, and returns a computed exit code.  ``_cmd_validate``
guards with the wrong exception family and returns an exit code that
is not part of the 0/1/2 contract.  ``_cmd_ingest`` ships new wording
no conformance expectation or test pins.

R010's escape check sees only ``raise`` statements written in a
handler, so the ``FormatError`` escaping from the two ``_parse`` calls
is no longer reported.  For the real handlers, the CLI cases of
``tests/test_ingest_formats.py::test_hostile_fixture_pinned_error``
catch that shape.
"""


class FormatError(Exception):
    pass


class RegistryError(Exception):
    pass


def _parse(path):
    raise FormatError(f"{path}: no records found")


def _cmd_convert(args):
    records = _parse(args.path)  # FormatError escapes (not reported)
    if not records:
        raise RegistryError(str(args))  # fully dynamic message
    return len(records)  # computed, not a literal 0/1/2


def _cmd_validate(args):
    try:
        _parse(args.path)
    except ValueError:  # wrong family: FormatError escapes (not reported)
        return 3  # not a documented exit code
    return 0


def _cmd_ingest(args):
    raise FormatError("manifest weather uncharted")  # unpinned wording
