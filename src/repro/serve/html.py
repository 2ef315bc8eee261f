"""The dashboard's single-file HTML/JS asset.

Served inline from memory at ``/`` — no static file tree, no frontend
dependencies, nothing to build.  The page is a thin client over the JSON
endpoints: it polls ``/api/status``, renders the coverage heatmap and
per-CCA rankings, lists the corpus, and replays an entry (sparkline via
inline SVG) through ``/api/replay``.  Everything it shows can equally be
``curl``-ed; the page exists so a campaign can be watched without tooling.
"""

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro campaign dashboard</title>
<style>
  :root { --bg:#11151a; --panel:#1a2027; --ink:#d7dde4; --dim:#7c8896;
          --accent:#4cc2ff; --good:#57c979; --warn:#e0b050; --bad:#e06c60; }
  body { background:var(--bg); color:var(--ink); margin:0;
         font:14px/1.45 "SF Mono","Cascadia Code",Menlo,Consolas,monospace; }
  header { padding:14px 22px; border-bottom:1px solid #2a323b;
           display:flex; gap:18px; align-items:baseline; flex-wrap:wrap; }
  header h1 { font-size:17px; margin:0; }
  header .state { color:var(--accent); }
  main { display:grid; grid-template-columns:1fr 1fr; gap:16px; padding:16px 22px; }
  section { background:var(--panel); border:1px solid #2a323b; border-radius:6px;
            padding:12px 16px; overflow:auto; }
  section.wide { grid-column:1 / -1; }
  h2 { font-size:13px; text-transform:uppercase; letter-spacing:.08em;
       color:var(--dim); margin:0 0 10px; }
  table { border-collapse:collapse; width:100%; font-size:13px; }
  th, td { text-align:left; padding:3px 10px 3px 0; white-space:nowrap; }
  th { color:var(--dim); font-weight:normal; border-bottom:1px solid #2a323b; }
  tr.clickable { cursor:pointer; }
  tr.clickable:hover td { color:var(--accent); }
  .bar { height:8px; background:#262e37; border-radius:4px; overflow:hidden;
         width:220px; display:inline-block; vertical-align:middle; }
  .bar i { display:block; height:100%; background:var(--accent); }
  .heat td.cell { text-align:center; min-width:34px; padding:2px;
                  border:1px solid #242c34; color:var(--dim); }
  .num { color:var(--ink); }
  .dim { color:var(--dim); }
  .good { color:var(--good); } .warn { color:var(--warn); } .bad { color:var(--bad); }
  svg.spark { background:#141a20; border:1px solid #2a323b; border-radius:4px; }
  select, button { background:#242c34; color:var(--ink); border:1px solid #39434e;
                   border-radius:4px; padding:3px 8px; font:inherit; }
  #replay-out { margin-top:10px; }
  #log { max-height:180px; overflow:auto; font-size:12px; color:var(--dim); }
</style>
</head>
<body>
<header>
  <h1>repro campaign <span id="campaign" class="state">—</span></h1>
  <span id="progress-text" class="dim">loading…</span>
  <span class="bar"><i id="progress-bar" style="width:0%"></i></span>
  <span id="rates" class="dim"></span>
</header>
<main>
  <section class="wide" id="status-section">
    <h2>Scenarios</h2>
    <table id="scenarios"><tbody></tbody></table>
    <div id="extras" class="dim" style="margin-top:8px"></div>
  </section>
  <section>
    <h2>Per-CCA vulnerability rankings</h2>
    <table id="rankings"><tbody></tbody></table>
  </section>
  <section>
    <h2>Behavior coverage</h2>
    <div id="coverage"></div>
  </section>
  <section class="wide">
    <h2>Corpus <span id="corpus-count" class="dim"></span> — click an entry to replay</h2>
    <div>replay against <select id="replay-cca"></select></div>
    <div id="replay-out"></div>
    <table id="corpus"><tbody></tbody></table>
  </section>
  <section class="wide">
    <h2>Telemetry stream</h2>
    <div id="log"></div>
  </section>
</main>
<script>
"use strict";
const $ = (id) => document.getElementById(id);
const fmt = (v, d=3) => (v === null || v === undefined) ? "–"
  : (typeof v === "number" ? v.toFixed(d) : String(v));
async function getJSON(url) {
  const response = await fetch(url);
  return response.json();
}

function renderStatus(s) {
  $("campaign").textContent =
    (s.campaign || "(no campaign)") + " · " + (s.state || "unknown").toUpperCase();
  const fraction = s.progress_fraction;
  $("progress-bar").style.width = (fraction === null ? 0 : fraction * 100) + "%";
  $("progress-text").textContent =
    `${s.scenarios_completed}/${s.scenarios_total} scenarios · ` +
    (fraction === null ? "n/a" : Math.round(fraction * 100) + "%") +
    (s.eta_s ? ` · ETA ${Math.round(s.eta_s)}s` : "");
  $("rates").textContent =
    `${s.evaluations} evals` +
    (s.evals_per_sec ? ` @ ${fmt(s.evals_per_sec, 1)}/s` : "") +
    (s.cache_hit_rate !== null ? ` · cache ${(s.cache_hit_rate * 100).toFixed(0)}%` : "");
  const body = $("scenarios").tBodies[0];
  body.innerHTML = "<tr><th>scenario</th><th>state</th><th>gen</th>" +
    "<th>best</th><th>evals</th><th>cells</th></tr>";
  for (const [sid, e] of Object.entries(s.scenarios || {}).sort()) {
    const tr = body.insertRow();
    const cls = e.state === "complete" ? "good" : (e.state === "running" ? "warn" : "dim");
    tr.innerHTML = `<td>${sid}</td><td class="${cls}">${e.state}</td>` +
      `<td>${e.generation ?? 0}${e.generations_total ? "/" + e.generations_total : ""}</td>` +
      `<td class="num">${fmt(e.best_fitness, 4)}</td>` +
      `<td>${e.evaluations ?? 0}</td><td>${e.cells ?? 0}</td>`;
  }
  const faults = s.faults || {};
  const faultText = Object.values(faults).some(v => v)
    ? ` · faults: ${faults.failures} failed, ${faults.retries} retried, ` +
      `${faults.quarantined} quarantined` : "";
  $("extras").textContent =
    `quarantine file: ${s.quarantine_entries} entries` +
    (s.manifest_present ? ` · manifest digest ${(s.result_digest || "n/a").slice(0, 16)}`
                        : " · no manifest yet") + faultText;
}

function renderRankings(r) {
  const body = $("rankings").tBodies[0];
  body.innerHTML = "<tr><th>cca</th><th>worst</th><th>mean</th><th>done</th>" +
    "<th>corpus</th><th>quar.</th><th>triage</th></tr>";
  for (const row of r.rows || []) {
    const tr = body.insertRow();
    tr.innerHTML = `<td>${row.cca || "?"}</td>` +
      `<td class="bad">${fmt(row.worst_fitness, 4)}</td>` +
      `<td>${fmt(row.mean_best_fitness, 4)}</td>` +
      `<td>${row.scenarios_completed}</td><td>${row.corpus_entries}</td>` +
      `<td>${row.quarantined}</td><td>${row.triage_most_vulnerable}</td>`;
  }
}

function renderCoverage(c) {
  const host = $("coverage");
  host.innerHTML = `<div class="dim">${c.cells} cells</div>`;
  for (const [cca, plane] of Object.entries(c.heatmap || {})) {
    const peak = Math.max(1, ...plane.counts.flat());
    let html = `<div style="margin-top:8px">${cca}</div>` +
      `<table class="heat"><tr><td></td>` +
      plane.cols.map(col => `<td class="cell dim">${col}</td>`).join("") + "</tr>";
    for (let i = plane.rows.length - 1; i >= 0; i--) {
      html += `<tr><td class="cell dim">${plane.rows[i]}</td>` + plane.counts[i].map(n => {
        const alpha = n ? (0.25 + 0.75 * n / peak) : 0;
        return `<td class="cell" style="background:rgba(76,194,255,${alpha})">` +
               `${n || ""}</td>`;
      }).join("") + "</tr>";
    }
    host.innerHTML += html + "</table>";
  }
}

function sparkline(points) {
  if (!points.length) return "<span class='dim'>(no series)</span>";
  const w = 560, h = 80, xs = points.map(p => p[0]), ys = points.map(p => p[1]);
  const x0 = Math.min(...xs), x1 = Math.max(...xs) || 1;
  const y1 = Math.max(...ys) || 1;
  const path = points.map((p, i) =>
    (i ? "L" : "M") + ((p[0] - x0) / (x1 - x0) * (w - 8) + 4).toFixed(1) +
    "," + (h - 4 - p[1] / y1 * (h - 8)).toFixed(1)).join(" ");
  return `<svg class="spark" width="${w}" height="${h}">` +
    `<path d="${path}" fill="none" stroke="#4cc2ff" stroke-width="1.5"/>` +
    `<text x="6" y="14" fill="#7c8896" font-size="11">peak ${y1.toFixed(2)} Mbps</text></svg>`;
}

async function replayEntry(fp) {
  const cca = $("replay-cca").value;
  $("replay-out").innerHTML = `<span class="dim">replaying ${fp.slice(0, 12)} vs ${cca}…</span>`;
  const r = await getJSON(`/api/replay/${fp}?cca=${encodeURIComponent(cca)}`);
  if (r.error) { $("replay-out").innerHTML = `<span class="bad">${r.error}</span>`; return; }
  $("replay-out").innerHTML =
    `<div>${fp.slice(0, 12)} vs <b>${r.cca}</b>: score ` +
    `<span class="bad">${fmt(r.score.total, 4)}</span>` +
    ` (original ${fmt(r.original_score, 4)}, Δ ${fmt(r.delta, 4)})` +
    ` · ${r.summary.throughput_mbps} Mbps` +
    ` · ${r.cached ? "<span class='good'>cache hit</span>" : "simulated"}</div>` +
    sparkline(r.series.windowed_throughput || []);
}

async function renderCorpus() {
  const c = await getJSON("/api/corpus");
  $("corpus-count").textContent = `(${c.entries})`;
  const body = $("corpus").tBodies[0];
  body.innerHTML = "<tr><th>fingerprint</th><th>mode</th><th>scenario</th>" +
    "<th>score</th><th>origin</th><th>cell</th></tr>";
  const ccas = new Set();
  for (const row of c.rows || []) {
    if (row.cca) ccas.add(row.cca);
    const tr = body.insertRow();
    tr.className = "clickable";
    tr.onclick = () => replayEntry(row.fingerprint);
    tr.innerHTML = `<td>${row.fingerprint.slice(0, 12)}</td><td>${row.mode}</td>` +
      `<td>${row.scenario_id || "–"}</td><td class="num">${fmt(row.score, 4)}</td>` +
      `<td>${row.origin}</td><td class="dim">${row.behavior_cell || "–"}</td>`;
  }
  const select = $("replay-cca");
  if (!select.options.length) {
    for (const cca of ["reno", "cubic", "bbr", ...ccas]) {
      if (![...select.options].some(o => o.value === cca)) {
        select.add(new Option(cca, cca));
      }
    }
  }
}

let streamOffset = 0;
async function tailStream() {
  try {
    const s = await getJSON(`/api/stream?offset=${streamOffset}&wait=10`);
    streamOffset = s.offset;
    const log = $("log");
    for (const record of s.records || []) {
      if (record.type === "metrics") continue;
      const div = document.createElement("div");
      div.textContent = `${new Date(record.t * 1000).toLocaleTimeString()} ` +
        `${record.type} ${record.scenario || record.campaign || ""} ` +
        (record.best_fitness !== undefined ? `best=${fmt(record.best_fitness, 4)}` : "");
      log.prepend(div);
    }
    while (log.children.length > 200) log.lastChild.remove();
  } catch (err) { await new Promise(r => setTimeout(r, 2000)); }
  tailStream();
}

async function refresh() {
  try {
    renderStatus(await getJSON("/api/status"));
    renderRankings(await getJSON("/api/rankings"));
    renderCoverage(await getJSON("/api/coverage"));
  } catch (err) { /* server going away mid-poll is fine */ }
}
refresh();
renderCorpus();
tailStream();
setInterval(refresh, 3000);
setInterval(renderCorpus, 15000);
</script>
</body>
</html>
"""
