"""The ledger's workloads by name."""

from ledger.batch_many import BatchMany
from ledger.ladder_cold import LadderCold
from ledger.paper_sim import PaperSim
from ledger.service_zipf import ServiceZipf

WORKLOADS = {
    w.name: w for w in (LadderCold, ServiceZipf, BatchMany, PaperSim)
}
