(* Fail when an exported lib/ value has no user outside its own
   compilation unit, counting a test as a user only of declared test
   support.

   Usage: exports BUILD_DIR, after [dune build @check] (which also writes
   the typed trees of executables and tests); BUILD_DIR is normally
   [_build/default]. [dune runtest] runs it that way.

   The declarations are the [val]s of every lib/ interface's typed tree
   ([.cmti]), submodules included. The uses are the identifiers of every
   implementation's typed tree ([.cmt]) under BUILD_DIR. A library or
   executable use always counts; a use from a unit whose source is under
   test/ counts only for a value of [test_support]. Both sides are matched
   on the declaration's [Shape.Uid.t], so a use through a module alias
   ([module J = Json], a library's wrapper module) still counts. Prints one
   line per unused value and exits 1 if there is any. *)

(* Declared test support: a value here may have tests as its only users.
   An entry ending in ".mli" or "/" covers every value of those interfaces;
   any other entry names one value. *)
let test_support =
  [
    "lib/check/" (* the oracle and fuzz library *);
    "lib/topology/fixtures.mli" (* the paper's example graphs *);
    "Dspf.verify" (* the from-scratch audit of the incremental SPF *);
    (* The incremental bound: a leaf-edge failure rewrites one node. *)
    "Dspf.stats";
    (* The MFBG guarantee: every node's red and blue paths share no link,
       so any single link failure leaves it one of the two. *)
    "Redundant.paths_disjoint";
    "Redundant.survives";
    (* The level-2 domain's tree validates and holds every member domain's
       agent but the source's; [Hierarchy.recover] only shows the links it
       repairs. *)
    "Hierarchy.top_domain";
  ]

let declared file name =
  List.exists
    (fun s ->
      if String.ends_with ~suffix:"/" s then String.starts_with ~prefix:s file
      else if String.ends_with ~suffix:".mli" s then s = file
      else s = name)
    test_support

let rec files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files path else [ path ])

let () =
  let cmts =
    files Sys.argv.(1)
    |> List.filter (fun f -> Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti")
    |> List.map Cmt_format.read_cmt
  in
  (* The uids of values another unit names, apart for test units. An
     interface and its implementation number their uids separately, so a
     use inside the declaring unit could collide with an exported uid: skip
     those. *)
  let used = Hashtbl.create 4096 and test_used = Hashtbl.create 1024 in
  let unit = ref "" and uses = ref used in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
     | Texp_ident (_, _, { val_uid = Item { comp_unit; _ } as uid; _ }) when comp_unit <> !unit ->
         Hashtbl.replace !uses uid ()
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      match c.cmt_annots with
      | Implementation str ->
          unit := c.cmt_modname;
          uses :=
            (match c.cmt_sourcefile with
            | Some f when String.starts_with ~prefix:"test/" f -> test_used
            | _ -> used);
          iter.structure iter str
      | _ -> ())
    cmts;
  let unused = ref [] in
  let rec scan file path (sg : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            let uid = vd.val_val.val_uid and name = path ^ vd.val_name.txt in
            if
              not
                (Hashtbl.mem used uid || (Hashtbl.mem test_used uid && declared file name))
            then unused := (file ^ ": " ^ name) :: !unused
        | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
          ->
            scan file (path ^ m ^ ".") sg
        | _ -> ())
      sg.sig_items
  in
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      match (c.cmt_annots, c.cmt_sourcefile) with
      | Interface sg, Some file when String.starts_with ~prefix:"lib/" file ->
          let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename file)) in
          scan file (m ^ ".") sg
      | _ -> ())
    cmts;
  List.iter print_endline (List.sort_uniq compare !unused);
  if !unused <> [] then exit 1
