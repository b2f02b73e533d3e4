(* Tests for the PGAS memory substrate: address packing, partitions with
   the size-class allocator, and the colored-key cache. *)

module Gaddr = Drust_memory.Gaddr
module Partition = Drust_memory.Partition
module Cache = Drust_memory.Cache
module Univ = Drust_util.Univ

let int_tag : int Univ.tag = Univ.create_tag ~name:"int"
let pack = Univ.pack int_tag
let unpack v = Univ.unpack_exn int_tag v

(* ------------------------------------------------------------------ *)
(* Gaddr *)

let test_gaddr_fields () =
  let a = Gaddr.make ~node:5 ~offset:0xABC in
  Alcotest.(check int) "node" 5 (Gaddr.node_of a);
  Alcotest.(check int) "offset" 0xABC (Gaddr.offset_of a);
  Alcotest.(check int) "color" 0 (Gaddr.color_of a)

let test_gaddr_color_roundtrip () =
  let a = Gaddr.make ~node:3 ~offset:77 in
  let b = Gaddr.with_color a 123 in
  Alcotest.(check int) "color set" 123 (Gaddr.color_of b);
  Alcotest.(check int) "node preserved" 3 (Gaddr.node_of b);
  Alcotest.(check int) "offset preserved" 77 (Gaddr.offset_of b);
  Alcotest.(check bool) "clear_color restores" true
    (Gaddr.equal a (Gaddr.clear_color b))

let test_gaddr_bump () =
  let a = Gaddr.make ~node:0 ~offset:1 in
  let b = Gaddr.bump_color a in
  Alcotest.(check int) "bumped" 1 (Gaddr.color_of b);
  Alcotest.(check bool) "differs" false (Gaddr.equal a b)

let test_gaddr_overflow () =
  let a = Gaddr.with_color (Gaddr.make ~node:0 ~offset:1) Gaddr.max_color in
  Alcotest.(check bool) "overflow raises" true
    (try
       ignore (Gaddr.bump_color a);
       false
     with Gaddr.Color_overflow _ -> true)

let test_gaddr_bounds () =
  Alcotest.(check bool) "node too big" true
    (try
       ignore (Gaddr.make ~node:Gaddr.max_nodes ~offset:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "offset too big" true
    (try
       ignore (Gaddr.make ~node:0 ~offset:(Gaddr.max_offset + 1));
       false
     with Invalid_argument _ -> true)

let prop_gaddr_pack_unpack =
  QCheck.Test.make ~name:"gaddr field packing is lossless" ~count:500
    QCheck.(triple (int_bound (Gaddr.max_nodes - 1)) (int_bound 1_000_000)
              (int_bound Gaddr.max_color))
    (fun (node, offset, color) ->
      let a = Gaddr.with_color (Gaddr.make ~node ~offset) color in
      Gaddr.node_of a = node && Gaddr.offset_of a = offset
      && Gaddr.color_of a = color)

(* ------------------------------------------------------------------ *)
(* Partition *)

let test_partition_alloc_get () =
  let p = Partition.create ~node:1 ~capacity_bytes:4096 in
  let a = Partition.alloc p ~size:100 (pack 7) in
  Alcotest.(check int) "node" 1 (Gaddr.node_of a);
  Alcotest.(check int) "value" 7 (unpack (Partition.get p a).Partition.value);
  Alcotest.(check int) "size" 100 (Partition.get p a).Partition.size

let test_partition_distinct_addresses () =
  let p = Partition.create ~node:0 ~capacity_bytes:65536 in
  let addrs = List.init 50 (fun i -> Partition.alloc p ~size:16 (pack i)) in
  let uniq = List.sort_uniq Gaddr.compare addrs in
  Alcotest.(check int) "all distinct" 50 (List.length uniq)

let test_partition_free_and_reuse () =
  let p = Partition.create ~node:0 ~capacity_bytes:4096 in
  let a = Partition.alloc p ~size:64 (pack 1) in
  let used = Partition.used_bytes p in
  Partition.free p a;
  Alcotest.(check int) "usage returns" (used - 64) (Partition.used_bytes p);
  let b = Partition.alloc p ~size:64 (pack 2) in
  Alcotest.(check int) "offset reused" (Gaddr.offset_of a) (Gaddr.offset_of b)

let test_partition_free_dead () =
  let p = Partition.create ~node:0 ~capacity_bytes:4096 in
  let a = Partition.alloc p ~size:8 (pack 0) in
  Partition.free p a;
  Alcotest.(check bool) "double free" true
    (try
       Partition.free p a;
       false
     with Invalid_argument _ -> true)

let test_partition_oom () =
  let p = Partition.create ~node:0 ~capacity_bytes:128 in
  Alcotest.(check bool) "oom raises" true
    (try
       ignore (Partition.alloc p ~size:1024 (pack 0));
       false
     with Partition.Out_of_memory _ -> true)

let test_partition_set () =
  let p = Partition.create ~node:0 ~capacity_bytes:4096 in
  let a = Partition.alloc p ~size:8 (pack 1) in
  Partition.set p a (pack 2);
  Alcotest.(check int) "updated" 2 (unpack (Partition.get p a).Partition.value)

let test_partition_get_colored_address () =
  (* Lookups must ignore the color field. *)
  let p = Partition.create ~node:0 ~capacity_bytes:4096 in
  let a = Partition.alloc p ~size:8 (pack 5) in
  let colored = Gaddr.with_color a 99 in
  Alcotest.(check int) "colored get" 5 (unpack (Partition.get p colored).Partition.value)

let test_partition_foreign_address () =
  let p = Partition.create ~node:0 ~capacity_bytes:4096 in
  let foreign = Gaddr.make ~node:1 ~offset:8 in
  Alcotest.(check bool) "foreign rejected" true
    (try
       ignore (Partition.get p foreign);
       false
     with Invalid_argument _ -> true)

let test_partition_iter () =
  let p = Partition.create ~node:0 ~capacity_bytes:4096 in
  ignore (Partition.alloc p ~size:8 (pack 1));
  ignore (Partition.alloc p ~size:8 (pack 2));
  let n = ref 0 in
  Partition.iter p (fun _ _ -> incr n);
  Alcotest.(check int) "two live" 2 !n

let test_partition_put_mirrors () =
  (* Replication upserts at exact offsets; a later promotion must be able
     to allocate without colliding with mirrored objects. *)
  let primary = Partition.create ~node:2 ~capacity_bytes:65536 in
  let backup = Partition.create ~node:2 ~capacity_bytes:65536 in
  let a = Partition.alloc primary ~size:64 (pack 1) in
  Partition.put backup a ~size:64 (pack 1);
  Alcotest.(check int) "mirrored" 1 (unpack (Partition.get backup a).Partition.value);
  Partition.put backup a ~size:64 (pack 2);
  Alcotest.(check int) "upserted" 2 (unpack (Partition.get backup a).Partition.value);
  Alcotest.(check int) "no double count" 64 (Partition.used_bytes backup);
  let fresh = Partition.alloc backup ~size:64 (pack 3) in
  Alcotest.(check bool) "bump advanced past mirror" true
    (Gaddr.offset_of fresh <> Gaddr.offset_of a)

(* Freed offsets of a class come back last-freed first, however many are
   pending: the free list grows past its first block without losing or
   reordering any. *)
let test_partition_free_list_lifo () =
  let p = Partition.create ~node:0 ~capacity_bytes:65536 in
  let addrs = List.init 20 (fun i -> Partition.alloc p ~size:40 (pack i)) in
  List.iter (Partition.free p) addrs;
  let again = List.init 20 (fun i -> Partition.alloc p ~size:33 (pack i)) in
  Alcotest.(check (list int)) "last freed, first reused"
    (List.rev_map Gaddr.offset_of addrs)
    (List.map Gaddr.offset_of again);
  Alcotest.(check int) "class bytes in use" (20 * 64) (Partition.used_bytes p)

(* An object's life on its home partition: the entry record, and nothing
   for the size class, the free list or the lookup. *)
let test_partition_allocation b =
  let p = Partition.create ~node:0 ~capacity_bytes:65536 in
  let v = pack 1 in
  Partition.free p (Partition.alloc p ~size:64 v);
  let engine = Drust_sim.Engine.create () in
  Alloc_budget.check b "Partition.alloc + free of a recycled class" ~max:4.0
    (Alloc_budget.per_call engine
       ~run:(fun () -> Drust_sim.Engine.run engine)
       (fun _ -> Partition.free p (Partition.alloc p ~size:64 v)))

let prop_partition_usage_balanced =
  QCheck.Test.make ~name:"partition usage returns to zero after freeing all"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 1 512))
    (fun sizes ->
      let p = Partition.create ~node:0 ~capacity_bytes:(1 lsl 20) in
      let addrs = List.map (fun s -> Partition.alloc p ~size:s (pack s)) sizes in
      List.iter (Partition.free p) addrs;
      let live = ref 0 in
      Partition.iter p (fun _ _ -> incr live);
      Partition.used_bytes p = 0 && !live = 0)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_insert_lookup () =
  let c = Cache.create ~node:0 () in
  let g = Gaddr.make ~node:1 ~offset:16 in
  let copy = Cache.insert c g ~size:64 (pack 10) in
  Alcotest.(check int) "refcount starts 1" 1 copy.Cache.refcount;
  (match Cache.lookup c g with
  | Some found -> Alcotest.(check int) "value" 10 (unpack found.Cache.value)
  | None -> Alcotest.fail "expected hit")

let test_cache_color_miss () =
  (* The heart of DRust's implicit invalidation: a lookup under a newer
     color must miss even though the physical address matches. *)
  let c = Cache.create ~node:0 () in
  let g = Gaddr.make ~node:1 ~offset:16 in
  ignore (Cache.insert c g ~size:64 (pack 10));
  let newer = Gaddr.with_color g 1 in
  Alcotest.(check bool) "stale copy not returned" true (Cache.lookup c newer = None)

let test_cache_displacement_keeps_pinned_copy () =
  let c = Cache.create ~node:0 () in
  let g = Gaddr.make ~node:1 ~offset:16 in
  let old_copy = Cache.insert c g ~size:64 (pack 1) in
  (* Old copy still pinned (refcount 1) when a newer color arrives. *)
  let newer = Gaddr.with_color g 3 in
  let new_copy = Cache.insert c newer ~size:64 (pack 2) in
  Alcotest.(check bool) "old survives for its readers" false old_copy.Cache.dead;
  Alcotest.(check int) "old still readable" 1 (unpack old_copy.Cache.value);
  (match Cache.lookup c newer with
  | Some found -> Alcotest.(check int) "new visible" 2 (unpack found.Cache.value)
  | None -> Alcotest.fail "expected hit on new color");
  (* Draining the old pin reclaims it. *)
  Cache.release c old_copy;
  Alcotest.(check bool) "old reclaimed after release" true old_copy.Cache.dead;
  Cache.release c new_copy;
  Alcotest.(check bool) "new copy still mapped" true (Cache.lookup c newer <> None)

let test_cache_refcount_underflow () =
  let c = Cache.create ~node:0 () in
  let g = Gaddr.make ~node:1 ~offset:16 in
  let copy = Cache.insert c g ~size:8 (pack 0) in
  Cache.release c copy;
  Alcotest.(check bool) "underflow raises" true
    (try
       Cache.release c copy;
       false
     with Invalid_argument _ -> true)

let test_cache_evict_unreferenced () =
  let c = Cache.create ~node:0 () in
  let g1 = Gaddr.make ~node:1 ~offset:16 in
  let g2 = Gaddr.make ~node:1 ~offset:32 in
  let c1 = Cache.insert c g1 ~size:100 (pack 1) in
  let _c2 = Cache.insert c g2 ~size:50 (pack 2) in
  Cache.release c c1;
  let reclaimed = Cache.evict_unreferenced c in
  Alcotest.(check int) "reclaimed bytes" 100 reclaimed;
  Alcotest.(check bool) "g1 gone" true (Cache.lookup c g1 = None);
  Alcotest.(check bool) "g2 kept" true (Cache.lookup c g2 <> None)

let test_cache_invalidate_physical () =
  let c = Cache.create ~node:0 () in
  let g = Gaddr.make ~node:1 ~offset:16 in
  let copy = Cache.insert c g ~size:8 (pack 1) in
  Cache.release c copy;
  (* Invalidate with a different color: physical match is enough. *)
  Cache.invalidate_physical c (Gaddr.with_color g 7);
  Alcotest.(check bool) "gone" true (Cache.lookup c g = None);
  Alcotest.(check int) "bytes reclaimed" 0 (Cache.used_bytes c)

let test_cache_used_bytes () =
  let c = Cache.create ~node:0 () in
  let g = Gaddr.make ~node:1 ~offset:16 in
  let copy = Cache.insert c g ~size:256 (pack 1) in
  Alcotest.(check int) "counted" 256 (Cache.used_bytes c);
  Cache.release c copy;
  ignore (Cache.evict_unreferenced c);
  Alcotest.(check int) "reclaimed" 0 (Cache.used_bytes c)

let test_cache_hit_miss_stats () =
  let m = Drust_obs.Metrics.create () in
  let c = Cache.create ~metrics:m ~node:0 () in
  let g = Gaddr.make ~node:1 ~offset:16 in
  ignore (Cache.lookup c g);
  ignore (Cache.insert c g ~size:8 (pack 1));
  ignore (Cache.lookup c g);
  let counter name =
    match
      Drust_obs.Metrics.find (Drust_obs.Metrics.snapshot m)
        ~labels:[ ("node", "0") ] name
    with
    | Some (Drust_obs.Metrics.Count n) -> n
    | _ -> Alcotest.failf "%s{node=0} missing" name
  in
  Alcotest.(check int) "hits" 1 (counter "cache.hits");
  Alcotest.(check int) "misses" 1 (counter "cache.misses")

(* Property: random cache traffic keeps the accounting sane — used bytes
   never negative, lookups only ever return live copies cached under the
   exact colored key. *)
let prop_cache_accounting =
  QCheck.Test.make ~name:"cache accounting stays consistent" ~count:200
    QCheck.(list_of_size Gen.(1 -- 80) (pair small_int small_int))
    (fun script ->
      let c = Cache.create ~node:0 () in
      let live : (int, Cache.copy) Hashtbl.t = Hashtbl.create 8 in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun (a, b) ->
          let slot = abs a mod 6 in
          let g = Gaddr.with_color (Gaddr.make ~node:1 ~offset:(16 * (slot + 1)))
                    (abs b mod 4) in
          match abs (a + b) mod 4 with
          | 0 ->
              (* Drop our pin on the previous copy for this slot first, or
                 the drain below cannot reach it once displaced. *)
              (match Hashtbl.find_opt live slot with
              | Some old ->
                  while old.Cache.refcount > 0 do
                    Cache.release c old
                  done
              | None -> ());
              let copy = Cache.insert c g ~size:(8 * (slot + 1)) (pack slot) in
              Hashtbl.replace live slot copy
          | 1 -> (
              match Cache.lookup c g with
              | Some copy ->
                  check (not copy.Cache.dead);
                  check (Gaddr.equal copy.Cache.key g);
                  Cache.retain copy;
                  Cache.release c copy
              | None -> ())
          | 2 -> (
              match Hashtbl.find_opt live slot with
              | Some copy when copy.Cache.refcount > 0 -> Cache.release c copy
              | Some _ | None -> ())
          | _ -> Cache.invalidate_physical c g)
        script;
      (* Drain all held references, then a full eviction must zero it. *)
      Hashtbl.iter
        (fun _ copy ->
          while copy.Cache.refcount > 0 do
            Cache.release c copy
          done)
        live;
      ignore (Cache.evict_unreferenced c);
      check (Cache.used_bytes c = 0);
      for slot = 0 to 5 do
        for color = 0 to 3 do
          let g =
            Gaddr.with_color (Gaddr.make ~node:1 ~offset:(16 * (slot + 1))) color
          in
          check (Cache.peek c g = None)
        done
      done;
      !ok)

let () =
  Alcotest.run "memory"
    [
      ( "gaddr",
        [
          Alcotest.test_case "fields" `Quick test_gaddr_fields;
          Alcotest.test_case "color roundtrip" `Quick test_gaddr_color_roundtrip;
          Alcotest.test_case "bump" `Quick test_gaddr_bump;
          Alcotest.test_case "overflow" `Quick test_gaddr_overflow;
          Alcotest.test_case "bounds" `Quick test_gaddr_bounds;
          QCheck_alcotest.to_alcotest prop_gaddr_pack_unpack;
        ] );
      ( "partition",
        [
          Alcotest.test_case "alloc/get" `Quick test_partition_alloc_get;
          Alcotest.test_case "distinct addresses" `Quick test_partition_distinct_addresses;
          Alcotest.test_case "free and reuse" `Quick test_partition_free_and_reuse;
          Alcotest.test_case "double free" `Quick test_partition_free_dead;
          Alcotest.test_case "oom" `Quick test_partition_oom;
          Alcotest.test_case "set" `Quick test_partition_set;
          Alcotest.test_case "colored get" `Quick test_partition_get_colored_address;
          Alcotest.test_case "foreign rejected" `Quick test_partition_foreign_address;
          Alcotest.test_case "iter" `Quick test_partition_iter;
          Alcotest.test_case "put mirrors" `Quick test_partition_put_mirrors;
          Alcotest.test_case "free list LIFO" `Quick
            test_partition_free_list_lifo;
          Alcotest.test_case "alloc+free allocation budget" `Quick
            (Alloc_budget.case test_partition_allocation);
          QCheck_alcotest.to_alcotest prop_partition_usage_balanced;
        ] );
      ( "cache",
        [
          Alcotest.test_case "insert/lookup" `Quick test_cache_insert_lookup;
          Alcotest.test_case "color miss" `Quick test_cache_color_miss;
          Alcotest.test_case "displacement" `Quick test_cache_displacement_keeps_pinned_copy;
          Alcotest.test_case "refcount underflow" `Quick test_cache_refcount_underflow;
          Alcotest.test_case "evict unreferenced" `Quick test_cache_evict_unreferenced;
          Alcotest.test_case "invalidate physical" `Quick test_cache_invalidate_physical;
          Alcotest.test_case "used bytes" `Quick test_cache_used_bytes;
          Alcotest.test_case "hit/miss stats" `Quick test_cache_hit_miss_stats;
          QCheck_alcotest.to_alcotest prop_cache_accounting;
        ] );
    ]
