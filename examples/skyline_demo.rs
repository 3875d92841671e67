//! Skyline demo (the paper's §2.5.1 application): merge a collection of
//! buildings into a skyline with the one-deep divide-and-conquer
//! archetype, and render the result as ASCII art.
//!
//! Run with: `cargo run --example skyline_demo --release`

use parallel_archetypes::core::ExecutionMode;
use parallel_archetypes::dc::skeleton::run_shared;
use parallel_archetypes::dc::skyline::{concat_skyline, sequential_skyline};
use parallel_archetypes::dc::{Building, OneDeepSkyline, SkyPoint};

fn render(sky: &[SkyPoint], width: usize, height: usize) {
    if sky.is_empty() {
        println!("(empty skyline)");
        return;
    }
    let x_min = sky.first().unwrap().x;
    let x_max = sky.last().unwrap().x;
    let h_max = sky.iter().map(|p| p.h).fold(0.0, f64::max);
    let height_at = |x: f64| -> f64 {
        let idx = sky.partition_point(|p| p.x <= x);
        if idx == 0 {
            0.0
        } else {
            sky[idx - 1].h
        }
    };
    for row in (0..height).rev() {
        let level = h_max * (row as f64 + 0.5) / height as f64;
        let line: String = (0..width)
            .map(|c| {
                let x = x_min + (x_max - x_min) * (c as f64 + 0.5) / width as f64;
                if height_at(x) >= level {
                    '#'
                } else {
                    ' '
                }
            })
            .collect();
        println!("|{line}|");
    }
    println!("+{}+", "-".repeat(width));
}

fn main() {
    // A little city: deterministic pseudo-random buildings in 4 blocks
    // ("the initial distribution of data among processes is the split").
    let nblocks = 4;
    let per_block = 30;
    let inputs: Vec<Vec<Building>> = (0..nblocks)
        .map(|b| {
            (0..per_block)
                .map(|i| {
                    let seed = (b * per_block + i) as f64;
                    let left = (seed * 13.7) % 90.0;
                    let width = 2.0 + (seed * 5.3) % 10.0;
                    let height = 4.0 + (seed * 7.9) % 36.0;
                    Building::new(left, height, left + width)
                })
                .collect()
        })
        .collect();

    let all: Vec<Building> = inputs.iter().flatten().copied().collect();
    println!("{} buildings across {} processes", all.len(), nblocks);

    let out = run_shared(&OneDeepSkyline, inputs, ExecutionMode::Parallel);
    let sky = concat_skyline(&out);
    let reference = sequential_skyline(&all);
    println!(
        "one-deep skyline has {} vertices; matches sequential divide-and-conquer: {}",
        sky.len(),
        sky == reference
    );
    render(&sky, 100, 18);
}
