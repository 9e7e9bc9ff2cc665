//! Direct calls into the layers that the workloads reach only from inside another
//! layer's call (the seal and PM write inside `mirror_out`, the CTR fan-out, the
//! thread pool), made at the workload's own tensor sizes; plus the darknet per-layer
//! split and the one-thread-versus-default scaling ratios.

use crate::report::{Report, Samples};
use crate::trace::Tracer;
use plinius::{PliniusContext, PliniusError};
use plinius_crypto::{AesGcm, Key, SealedBuffer, SealedView, IV_LEN, SEAL_OVERHEAD};
use plinius_darknet::{LayerKind, Network, UpdateArgs};
use plinius_pmem::PmemPool;
use plinius_romulus::PmPtr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_clock::CostModel;
use std::time::Instant;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn mib_s(bytes: usize, ms: f64) -> f64 {
    if ms <= 0.0 {
        0.0
    } else {
        bytes as f64 / (1024.0 * 1024.0) / (ms / 1e3)
    }
}

/// Plaintext byte size of every learnable tensor of `net`, in layer order.
pub fn tensor_sizes(net: &Network) -> Vec<usize> {
    net.layers()
        .iter()
        .flat_map(|l| l.params().into_iter().map(|p| p.data.len() * 4))
        .collect()
}

/// Runs `f` `reps` times and returns the median wall time of one call in ms.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::default();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        s.push(ms_since(t));
    }
    s.median()
}

/// `crypto.seal_mib_s`, `crypto.open_mib_s`, `pmem.persist_mib_s`,
/// `pmem.read_mib_s`, `romulus.publish_region_ms`, `romulus.flip_tx_ms` and
/// `romulus.recover_ms`, measured by direct calls at the sizes in `sizes` (one call
/// per tensor, as the mirror makes them).
pub fn storage_and_crypto(
    sizes: &[usize],
    reps: usize,
    report: &mut Report,
) -> Result<(), PliniusError> {
    let total: usize = sizes.iter().sum();
    let sealed_total: usize = sizes.iter().map(|s| s + SEAL_OVERHEAD).sum();
    let key = Key::generate_128(&mut StdRng::seed_from_u64(11));
    let gcm = AesGcm::from_key(key.as_bytes());
    let plain: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![0x5a; n]).collect();
    let mut sealed: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![0; n + SEAL_OVERHEAD]).collect();
    let iv = [7u8; IV_LEN];
    let threads = plinius_parallel::max_threads();
    let seal_ms = median_ms(reps, || {
        for (p, s) in plain.iter().zip(sealed.iter_mut()) {
            plinius_crypto::seal_into_with_threads(&gcm, p, b"aad", &iv, s, threads)
                .expect("seal into a correctly sized buffer");
        }
    });
    let mut opened: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![0; n]).collect();
    let open_ms = median_ms(reps, || {
        for (s, o) in sealed.iter().zip(opened.iter_mut()) {
            SealedView::parse(s)
                .and_then(|v| v.open_into_with_threads(&gcm, b"aad", o, threads))
                .expect("open what was just sealed");
        }
    });
    report.check(
        "crypto.round_trip",
        opened == plain,
        "direct seal/open at the workload's tensor sizes",
    );
    report.metric("crypto.seal_mib_s", mib_s(total, seal_ms), "MiB/s", reps);
    report.metric("crypto.open_mib_s", mib_s(total, open_ms), "MiB/s", reps);

    // Raw pool: persist (store + flush) and read of the sealed bytes.
    let pool = PmemPool::new(sealed_total + 4096)?;
    let persist_ms = median_ms(reps, || {
        let mut off = 0;
        for s in &sealed {
            pool.persist(off, s).expect("persist inside the pool");
            off += s.len();
        }
    });
    let mut back = vec![0u8; sealed_total];
    let read_ms = median_ms(reps, || {
        pool.read(0, &mut back).expect("read inside the pool");
    });
    report.metric(
        "pmem.persist_mib_s",
        mib_s(sealed_total, persist_ms),
        "MiB/s",
        reps,
    );
    report.metric(
        "pmem.read_mib_s",
        mib_s(sealed_total, read_ms),
        "MiB/s",
        reps,
    );

    // Romulus over a fresh deployment: unlogged twin publishes of every sealed
    // tensor, the tiny epoch-flip transaction, and recovery.
    let ctx = PliniusContext::create(CostModel::sgx_eml_pm(), 4 * sealed_total + (1 << 20))?;
    let rom = ctx.romulus();
    let mut ptrs = Vec::with_capacity(sealed.len());
    let mut header = PmPtr::NULL;
    rom.transaction(|tx| {
        for s in &sealed {
            ptrs.push(tx.alloc(s.len())?);
        }
        header = tx.alloc(64)?;
        Ok(())
    })?;
    let publish_ms = median_ms(reps, || {
        for (p, s) in ptrs.iter().zip(&sealed) {
            rom.publish_region(*p, s)
                .expect("publish inside the region");
        }
    });
    let mut epoch = 0u64;
    let flip_ms = median_ms(reps.max(20), || {
        epoch += 1;
        rom.transaction(|tx| {
            tx.write_u64(header, epoch)?;
            tx.write_u64(header.add(8), epoch)?;
            tx.write_u64(header.add(16), epoch % 2)?;
            tx.write_u64(header.add(24), epoch)?;
            tx.write_u64(header.add(32), epoch)
        })
        .expect("flip transaction");
    });
    let recover_ms = median_ms(reps, || {
        rom.recover().expect("recovery of a consistent pool");
    });
    report.metric("romulus.publish_region_ms", publish_ms, "ms", reps);
    report.metric("romulus.flip_tx_ms", flip_ms, "ms", reps.max(20));
    report.metric("romulus.recover_ms", recover_ms, "ms", reps);
    Ok(())
}

/// `crypto.sample_open_us` (a fresh key schedule per sample, as
/// `PmDataset::sample` does) and `crypto.sample_open_cached_us` (one cached
/// `AesGcm`) for one training sample of `sample_bytes` plaintext bytes.
pub fn sample_open(sample_bytes: usize, reps: usize, report: &mut Report) {
    let key = Key::generate_128(&mut StdRng::seed_from_u64(12));
    let plain = vec![0x33u8; sample_bytes];
    let blob = SealedBuffer::seal_with_aad_and_iv(&key, &plain, b"sample0", &[1u8; IV_LEN])
        .expect("seal one sample");
    let fresh_ms = median_ms(reps, || {
        let out = blob
            .open_with_aad(&key, b"sample0")
            .expect("open one sample");
        std::hint::black_box(out);
    });
    let gcm = AesGcm::from_key(key.as_bytes());
    let mut out = vec![0u8; sample_bytes];
    let cached_ms = median_ms(reps, || {
        blob.as_view()
            .open_into(&gcm, b"sample0", &mut out)
            .expect("open one sample");
        std::hint::black_box(&out);
    });
    report.check("crypto.sample_round_trip", out == plain, "cached-key open");
    report.metric("crypto.sample_open_us", fresh_ms * 1e3, "us", reps);
    report.metric("crypto.sample_open_cached_us", cached_ms * 1e3, "us", reps);
}

/// `parallel.dispatch_us`: one empty `par_for_each_mut` over `nproc` items at the
/// default thread count.
pub fn dispatch(reps: usize, report: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut items = vec![0u64; nproc];
    let threads = plinius_parallel::max_threads();
    let ms = median_ms(reps, || {
        plinius_parallel::par_for_each_mut(&mut items, threads, |_, v| {
            std::hint::black_box(v);
        })
    });
    report.metric("parallel.dispatch_us", ms * 1e3, "us", reps);
}

/// Runs `f` with `PLINIUS_THREADS=1` set for the calling process, restoring the
/// previous value afterwards. Called only while no other thread of this process
/// reads the environment: the pipelines' seal workers are idle by then.
pub fn with_one_thread<T>(f: impl FnOnce() -> T) -> T {
    let before = std::env::var_os(plinius_parallel::THREADS_ENV);
    std::env::set_var(plinius_parallel::THREADS_ENV, "1");
    let out = f();
    match before {
        Some(v) => std::env::set_var(plinius_parallel::THREADS_ENV, v),
        None => std::env::remove_var(plinius_parallel::THREADS_ENV),
    }
    out
}

/// Records `parallel.scaling.<name>`: median wall at one thread over median wall at
/// the default thread count. `f` returns whether its call succeeded.
pub fn scaling(name: &str, reps: usize, report: &mut Report, mut f: impl FnMut() -> bool) {
    let mut failures = 0u64;
    let mut g = || failures += u64::from(!f());
    g();
    let default_ms = median_ms(reps, &mut g);
    let one_ms = with_one_thread(|| median_ms(reps, &mut g));
    report.ops += 2 * reps as u64 + 1;
    report.op_failures += failures;
    report.metric(
        &format!("parallel.scaling.{name}"),
        if default_ms > 0.0 {
            one_ms / default_ms
        } else {
            0.0
        },
        "ratio",
        reps,
    );
}

/// The darknet per-layer split: `Network::train_batch` on `net` and, on a twin,
/// `Layer::forward`/`backward`/`update` driven in the same order with one span per
/// call. Checks that both give bit-identical losses and weights, and records
/// `darknet.train_batch_ms`, `darknet.gflops`, `darknet.update_ms` and
/// `darknet.{conv,connected,maxpool}.{forward,backward}_ms` (per iteration, summed
/// over the layers of that kind).
pub fn darknet_split(
    net: &Network,
    images: &[f32],
    labels: &[f32],
    batch: usize,
    iters: usize,
    report: &mut Report,
) {
    let mut whole = net.clone();
    let mut twin = net.clone();
    let mut tracer = Tracer::new(true);
    let mut identical = true;
    for _ in 0..iters {
        let a = tracer.span("darknet.train_batch", |_| {
            whole.train_batch(images, labels, batch)
        });
        let b = tracer.span("darknet.layer_split", |t| {
            split_train_batch(&mut twin, images, labels, batch, t)
        });
        match a {
            Ok(a) => identical &= a.to_bits() == b.to_bits(),
            Err(e) => {
                report.op::<(), _>("darknet train_batch", Err(e));
                return;
            }
        }
        report.ops += 1;
    }
    identical &= crate::report::same_weights(&whole, &twin);
    report.check(
        "darknet.split_bit_identical",
        identical,
        "per-layer drive matches Network::train_batch (loss and weights)",
    );
    crate::nesting_check(&tracer, report);
    let totals = tracer.totals();
    let per_iter = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6 / iters as f64)
    };
    let tb = Samples::from(tracer.durations_ms("darknet.train_batch"));
    report.metric("darknet.train_batch_ms", tb.median(), "ms", tb.len());
    let gflop = net.flops_per_sample() as f64 * batch as f64 / 1e9;
    report.metric(
        "darknet.gflops",
        gflop / (tb.median() / 1e3),
        "GFLOP/s",
        tb.len(),
    );
    for kind in ["conv", "connected", "maxpool"] {
        for dir in ["forward", "backward"] {
            let v = per_iter(&format!("darknet.{kind}.{dir}"));
            report.metric(&format!("darknet.{kind}.{dir}_ms"), v, "ms", iters);
        }
    }
    report.metric("darknet.update_ms", per_iter("darknet.update"), "ms", iters);
}

fn kind_span(kind: LayerKind, forward: bool) -> &'static str {
    match (kind, forward) {
        (LayerKind::Convolutional, true) => "darknet.conv.forward",
        (LayerKind::Convolutional, false) => "darknet.conv.backward",
        (LayerKind::Connected, true) => "darknet.connected.forward",
        (LayerKind::Connected, false) => "darknet.connected.backward",
        (LayerKind::MaxPool, true) => "darknet.maxpool.forward",
        (LayerKind::MaxPool, false) => "darknet.maxpool.backward",
        (LayerKind::Softmax, true) => "darknet.softmax.forward",
        (LayerKind::Softmax, false) => "darknet.softmax.backward",
    }
}

/// `Network::train_batch`, driven layer by layer through the public `Layer` API in
/// the same order (zero deltas, forward, cross-entropy gradient, backward, update).
fn split_train_batch(
    net: &mut Network,
    images: &[f32],
    labels: &[f32],
    batch: usize,
    t: &mut Tracer,
) -> f32 {
    let outputs = net.outputs();
    let cfg = net.config().clone();
    let layers = net.layers_mut();
    for layer in layers.iter_mut() {
        layer.zero_delta();
    }
    for i in 0..layers.len() {
        let (before, rest) = layers.split_at_mut(i);
        let layer = &mut rest[0];
        let input = if i == 0 {
            images
        } else {
            before[i - 1].output()
        };
        t.span(kind_span(layer.kind(), true), |_| {
            layer.forward(input, batch)
        });
    }
    let predictions = layers.last().expect("non-empty").output().to_vec();
    let mut loss = 0.0f32;
    {
        let delta = layers.last_mut().expect("non-empty").delta_mut();
        for i in 0..batch * outputs {
            let (y, p) = (labels[i], predictions[i]);
            delta[i] = y - p;
            if y > 0.0 {
                loss += -y * (p.max(1e-9)).ln();
            }
        }
    }
    loss /= batch as f32;
    for i in (0..layers.len()).rev() {
        let (before, rest) = layers.split_at_mut(i);
        let layer = &mut rest[0];
        let name = kind_span(layer.kind(), false);
        if i == 0 {
            t.span(name, |_| layer.backward(images, None, batch));
        } else {
            let (prev_out, prev_delta) = before[i - 1].output_and_delta_mut();
            t.span(name, |_| layer.backward(prev_out, Some(prev_delta), batch));
        }
    }
    let args = UpdateArgs {
        learning_rate: cfg.learning_rate,
        momentum: cfg.momentum,
        decay: cfg.decay,
        batch,
    };
    for layer in layers.iter_mut() {
        t.span("darknet.update", |_| layer.update(&args));
    }
    let it = net.iteration();
    net.set_iteration(it + 1);
    loss
}
