"""R008 bad fixture: address arithmetic laundered through renames.

The ``LaunderingPredictor`` shapes are invisible to R003's
statement-level name filter — the statements doing the unmasked
arithmetic mention only neutral names (``cursor``, ``probe``,
``mixed``).  R008 must follow the taint from the address-named source
through the assignments (and through the ``passthrough`` helper's
return value) to the unmasked operation.

The ``UnparameterisedPredictor`` shapes take no address-named
parameter: their sources are an attribute, a call result and an
unpacked tuple, so R008 must check every function, not only those with
a tainted parameter.
"""


def passthrough(base):
    # Returns its address argument unmasked: call sites inherit taint.
    return base


class LaunderingPredictor:
    def __init__(self, table_bits):
        self.table_bits = table_bits
        self.base = 0

    def lookup(self, addr, step):
        cursor = addr  # taint flows through the rename
        probe = cursor + step  # unmasked add on a laundered address
        return probe

    def advance(self, step):
        mixed = passthrough(self.base)  # taint through the call
        mixed += step  # unmasked augmented add
        return mixed


class UnparameterisedPredictor:
    def __init__(self):
        self.last_addr = 0

    def advance(self, x):
        self.last_addr = self.last_addr + x  # unmasked attribute add

    def probe(self, table, i):
        addr = table.lookup(i)
        return addr + 4  # unmasked add on an address-named call result

    def span(self, pair):
        addr, size = pair
        return addr + size  # unmasked add after tuple unpacking
