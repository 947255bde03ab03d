"""Table 1 — probe-site selection via the socket-policy-file scan.

The authors scanned the Alexa top 1M for permissive Flash socket
policy files and picked the highest-ranked hits per category.  This
bench rebuilds that scan over the synthetic ranked universe (every
Table 1 site present at its catalog rank, a long tail without
policies) and times the wire-mode scan.
"""

from conftest import emit

from repro.data.sites import STUDY2_SITES
from repro.netsim import Network
from repro.policy.model import PolicyFile
from repro.policy.scanner import PolicyScanner
from repro.policy.server import PolicyServer
from repro.data.sites import synthetic_alexa_universe

UNIVERSE_SIZE = 2000

PAPER_TABLE1 = {
    "popular": ["qq.com", "promodj.com", "idwebgame.com", "parsnews.com",
                "idgameland.com", "vcp.ir"],
    "business": ["airdroid.com", "webhost1.ru", "restaurantesecia.com.br",
                 "speedtest.net.in", "iprank.ir"],
    "porn": ["pornclipstv.com", "porno-be.com", "pornbasetube.com",
             "pornozip.net", "pornorasskazov.net"],
}


def build_universe():
    network = Network()
    scanner_host = network.add_host("scanner.example")
    universe = synthetic_alexa_universe(size=UNIVERSE_SIZE, seed=7)
    table1_hosts = {site.hostname for site in STUDY2_SITES}
    permissive = PolicyFile.permissive("443")
    for hostname, rank, category in universe:
        host = network.add_host(hostname)
        # Only the Table 1 sites served permissive policy files.
        if hostname in table1_hosts:
            host.listen(843, PolicyServer(permissive).factory)
    return scanner_host, universe


def test_table1_site_selection(benchmark, output_dir):
    scanner_host, universe = build_universe()

    def scan():
        scanner = PolicyScanner(scanner_host)
        results = scanner.scan(universe)
        return scanner.select_probe_sites(
            results, {"popular": 6, "business": 5, "porn": 5}
        )

    selected = benchmark(scan)

    lines = [
        f"policy-file scan of {len(universe)} ranked sites "
        f"(paper: Alexa top 1M)",
        "",
        f"{'category':<10} {'measured selection':<60}",
    ]
    ok = True
    for category, paper_sites in PAPER_TABLE1.items():
        mine = [r.hostname for r in selected[category]]
        lines.append(f"{category:<10} {', '.join(mine)}")
        lines.append(f"{'  paper':<10} {', '.join(paper_sites)}")
        ok = ok and mine == paper_sites
    lines.append("")
    lines.append(f"selection matches Table 1 exactly: {ok}")
    emit(output_dir, "table1_site_selection", "\n".join(lines))
    assert ok
